// Package oracle is an independent ring-constrained join checker for the
// benchmark. It answers RCJ questions straight from the paper's definition —
// a pair <p, q> belongs to the result iff the circle with diameter pq holds
// no other point of P ∪ Q — using nothing but a uniform grid over the
// points. It shares no code with the engine's geometry, R-tree or join
// packages, so an engine bug cannot hide in a shared helper.
//
// Floating-point rounding makes points on (or within a hair of) a circle's
// boundary undecidable from the definition alone, so every verdict is one of
// three classes: Empty (no other point within the circle, with a margin),
// Occupied (some other point strictly inside, with a margin), or Borderline
// (a point sits on the boundary within the margin). Checks treat Borderline
// pairs as allowed either way.
package oracle

import (
	"math"
	"sort"
)

// Point is one input location. ID namespaces are per side.
type Point struct {
	X, Y float64
	ID   int64
}

// Side tells which input a point belongs to.
type Side uint8

// The two join inputs.
const (
	SideP Side = iota
	SideQ
)

// Class is the oracle's verdict on one candidate pair.
type Class uint8

// Verdicts, from "in the result" to "not in the result".
const (
	Empty Class = iota
	Borderline
	Occupied
)

func (c Class) String() string {
	switch c {
	case Empty:
		return "empty"
	case Borderline:
		return "borderline"
	default:
		return "occupied"
	}
}

// relTol is the relative margin on squared distances that separates the
// Empty/Occupied verdicts from Borderline. It is far wider than the rounding
// of a midpoint/radius computation and far narrower than any gap random
// inputs produce.
const relTol = 1e-7

type gpoint struct {
	x, y float64
	id   int64
	side Side
}

// Oracle indexes P ∪ Q in a uniform grid. It is immutable and safe for
// concurrent use.
type Oracle struct {
	pts        []gpoint // grouped by cell (CSR order)
	start      []int32  // cell c holds pts[start[c]:start[c+1]]
	minX, minY float64
	cell       float64
	nx, ny     int
	p, q       map[int64]Point
}

// New builds an oracle over the two inputs, sizing the grid to about two
// points per cell.
func New(p, q []Point) *Oracle {
	o := &Oracle{p: make(map[int64]Point, len(p)), q: make(map[int64]Point, len(q))}
	all := make([]gpoint, 0, len(p)+len(q))
	for _, pt := range p {
		all = append(all, gpoint{pt.X, pt.Y, pt.ID, SideP})
		o.p[pt.ID] = pt
	}
	for _, pt := range q {
		all = append(all, gpoint{pt.X, pt.Y, pt.ID, SideQ})
		o.q[pt.ID] = pt
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, g := range all {
		minX, maxX = math.Min(minX, g.x), math.Max(maxX, g.x)
		minY, maxY = math.Min(minY, g.y), math.Max(maxY, g.y)
	}
	if len(all) == 0 {
		minX, minY, maxX, maxY = 0, 0, 1, 1
	}
	w, h := math.Max(maxX-minX, 1e-9), math.Max(maxY-minY, 1e-9)
	cells := math.Max(float64(len(all))/2, 1)
	o.cell = math.Sqrt(w * h / cells)
	if o.cell <= 0 || math.IsNaN(o.cell) {
		o.cell = math.Max(w, h)
	}
	o.minX, o.minY = minX, minY
	o.nx = int(w/o.cell) + 1
	o.ny = int(h/o.cell) + 1
	counts := make([]int32, o.nx*o.ny+1)
	keys := make([]int, len(all))
	for i, g := range all {
		keys[i] = o.cellOf(g.x, g.y)
		counts[keys[i]+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	o.start = append([]int32(nil), counts...)
	o.pts = make([]gpoint, len(all))
	for i, g := range all {
		c := keys[i]
		o.pts[counts[c]] = g
		counts[c]++
	}
	return o
}

func (o *Oracle) col(x float64) int {
	c := int(math.Floor((x - o.minX) / o.cell))
	return min(max(c, 0), o.nx-1)
}

func (o *Oracle) row(y float64) int {
	r := int(math.Floor((y - o.minY) / o.cell))
	return min(max(r, 0), o.ny-1)
}

func (o *Oracle) cellOf(x, y float64) int { return o.row(y)*o.nx + o.col(x) }

// P and Q look up an input point by side and ID.
func (o *Oracle) P(id int64) (Point, bool) { pt, ok := o.p[id]; return pt, ok }

// Q looks up a point of the Q input.
func (o *Oracle) Q(id int64) (Point, bool) { pt, ok := o.q[id]; return pt, ok }

// Circle returns the smallest enclosing circle of a and b as the result
// rows report it: the midpoint and half the distance.
func Circle(a, b Point) (cx, cy, r float64) {
	dx, dy := a.X-b.X, a.Y-b.Y
	return (a.X + b.X) / 2, (a.Y + b.Y) / 2, math.Sqrt(dx*dx+dy*dy) / 2
}

// Classify decides whether the circle with diameter p–q (p from P, q from
// Q) is empty of every other input point. The scan visits grid rings
// outward from the circle's center, so an occupied circle is usually
// decided by the first cell.
func (o *Oracle) Classify(p, q Point) Class { return o.ClassifyAmong(p, q, nil) }

// ClassifyAmong is Classify against the subset of the indexed points that
// member accepts (nil accepts all): for a point set that changes while a
// query runs, pass the points known present throughout the query.
func (o *Oracle) ClassifyAmong(p, q Point, member func(Side, int64) bool) Class {
	cx, cy, _ := Circle(p, q)
	dx, dy := p.X-q.X, p.Y-q.Y
	r2 := (dx*dx + dy*dy) / 4
	inner, outer := r2*(1-relTol), r2*(1+relTol)
	r := math.Sqrt(outer)
	c0, r0 := o.col(cx), o.row(cy)
	lo, hi := o.col(cx-r), o.col(cx+r)
	bot, top := o.row(cy-r), o.row(cy+r)
	reach := max(c0-lo, hi-c0, r0-bot, top-r0)
	border := false
	scan := func(c, rw int) bool {
		k := rw*o.nx + c
		for _, g := range o.pts[o.start[k]:o.start[k+1]] {
			if (g.side == SideP && g.id == p.ID) || (g.side == SideQ && g.id == q.ID) {
				continue
			}
			if member != nil && !member(g.side, g.id) {
				continue
			}
			ex, ey := g.x-cx, g.y-cy
			d2 := ex*ex + ey*ey
			if d2 < inner {
				return true
			}
			if d2 <= outer {
				border = true
			}
		}
		return false
	}
	for k := 0; k <= reach; k++ {
		for rw := max(r0-k, bot); rw <= min(r0+k, top); rw++ {
			if rw == r0-k || rw == r0+k {
				for c := max(c0-k, lo); c <= min(c0+k, hi); c++ {
					if scan(c, rw) {
						return Occupied
					}
				}
				continue
			}
			// Inner rows of the ring contribute only its left and right cells.
			if c := c0 - k; c >= lo && scan(c, rw) {
				return Occupied
			}
			if c := c0 + k; c <= hi && scan(c, rw) {
				return Occupied
			}
		}
	}
	if border {
		return Borderline
	}
	return Empty
}

// Key identifies a result pair by its endpoint IDs.
type Key struct{ P, Q int64 }

// Partners returns the Q partners of p: every q whose pair with p is Empty
// (sure) or Borderline (allowed), scanning all of Q.
func (o *Oracle) Partners(p Point) (sure, allowed []int64) {
	for _, q := range o.q {
		switch o.Classify(p, q) {
		case Empty:
			sure = append(sure, q.ID)
		case Borderline:
			allowed = append(allowed, q.ID)
		}
	}
	sort.Slice(sure, func(i, j int) bool { return sure[i] < sure[j] })
	sort.Slice(allowed, func(i, j int) bool { return allowed[i] < allowed[j] })
	return sure, allowed
}

// Window is a closed axis-aligned rectangle on pair centers.
type Window struct{ MinX, MinY, MaxX, MaxY float64 }

// Contains reports whether (x, y) lies in the closed window.
func (w Window) Contains(x, y float64) bool {
	return w.MinX <= x && x <= w.MaxX && w.MinY <= y && y <= w.MaxY
}

// Bounded returns every pair whose center lies in w and whose diameter is at
// most maxDiam, split into Empty pairs (must be in an answer) and Borderline
// ones (may be). Pairs whose center or diameter sits within the rounding
// margin of the window edge or the bound land in allowed too.
func (o *Oracle) Bounded(w Window, maxDiam float64) (sure, allowed map[Key]bool) {
	sure, allowed = map[Key]bool{}, map[Key]bool{}
	half := maxDiam / 2
	eps := 1e-9 * math.Max(1, math.Max(math.Abs(w.MaxX), math.Abs(w.MaxY)))
	outer := Window{w.MinX - eps, w.MinY - eps, w.MaxX + eps, w.MaxY + eps}
	innerW := Window{w.MinX + eps, w.MinY + eps, w.MaxX - eps, w.MaxY - eps}
	d2max := maxDiam * maxDiam
	o.visit(w.MinX-half, w.MinY-half, w.MaxX+half, w.MaxY+half, func(p gpoint) {
		if p.side != SideP {
			return
		}
		o.visit(p.x-maxDiam, p.y-maxDiam, p.x+maxDiam, p.y+maxDiam, func(q gpoint) {
			if q.side != SideQ {
				return
			}
			cx, cy := (p.x+q.x)/2, (p.y+q.y)/2
			dx, dy := p.x-q.x, p.y-q.y
			d2 := dx*dx + dy*dy
			if !outer.Contains(cx, cy) || d2 > d2max*(1+relTol) {
				return
			}
			k := Key{p.id, q.id}
			switch o.Classify(Point{p.x, p.y, p.id}, Point{q.x, q.y, q.id}) {
			case Empty:
				if innerW.Contains(cx, cy) && d2 < d2max*(1-relTol) {
					sure[k] = true
				} else {
					allowed[k] = true
				}
			case Borderline:
				allowed[k] = true
			}
		})
	})
	return sure, allowed
}

// visit calls fn for every indexed point inside the closed rectangle.
func (o *Oracle) visit(minX, minY, maxX, maxY float64, fn func(gpoint)) {
	for rw := o.row(minY); rw <= o.row(maxY); rw++ {
		for c := o.col(minX); c <= o.col(maxX); c++ {
			k := rw*o.nx + c
			for _, g := range o.pts[o.start[k]:o.start[k+1]] {
				if minX <= g.x && g.x <= maxX && minY <= g.y && g.y <= maxY {
					fn(g)
				}
			}
		}
	}
}
