package oracle

import (
	"math/rand/v2"
	"testing"
)

// naive classifies by scanning every point: the definition, verbatim.
func naive(p, q Point, ps, qs []Point) Class {
	cx, cy := (p.X+q.X)/2, (p.Y+q.Y)/2
	dx, dy := p.X-q.X, p.Y-q.Y
	r2 := (dx*dx + dy*dy) / 4
	border := false
	check := func(x Point) bool {
		ex, ey := x.X-cx, x.Y-cy
		d2 := ex*ex + ey*ey
		if d2 < r2*(1-relTol) {
			return true
		}
		if d2 <= r2*(1+relTol) {
			border = true
		}
		return false
	}
	for _, x := range ps {
		if x.ID != p.ID && check(x) {
			return Occupied
		}
	}
	for _, x := range qs {
		if x.ID != q.ID && check(x) {
			return Occupied
		}
	}
	if border {
		return Borderline
	}
	return Empty
}

// On a line, a circle between two points holds every point between them,
// so only neighbours pair: P at even, Q at odd positions pair exactly with
// the Q points directly left and right of them.
func TestCollinearOnlyNeighboursPair(t *testing.T) {
	var ps, qs []Point
	for i := 0; i < 40; i++ {
		pt := Point{X: float64(i) * 1.5, Y: 3, ID: int64(i)}
		if i%2 == 0 {
			ps = append(ps, pt)
		} else {
			qs = append(qs, pt)
		}
	}
	o := New(ps, qs)
	for _, p := range ps {
		sure, allowed := o.Partners(p)
		var want []int64
		for _, id := range []int64{p.ID - 1, p.ID + 1} {
			if id >= 0 && id < 40 {
				want = append(want, id)
			}
		}
		if len(allowed) != 0 || len(sure) != len(want) {
			t.Fatalf("p %d: sure %v allowed %v, want %v", p.ID, sure, allowed, want)
		}
		for i := range want {
			if sure[i] != want[i] {
				t.Fatalf("p %d: sure %v, want %v", p.ID, sure, want)
			}
		}
	}
}

// On a checkerboard-coloured unit grid, axis neighbours always differ in
// colour and their circle (diameter 1) holds no other grid point; every
// other cross-colour pair encloses a grid point strictly.
func TestCheckerboardGrid(t *testing.T) {
	const n = 12
	var ps, qs []Point
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			pt := Point{X: float64(x), Y: float64(y), ID: int64(y*n + x)}
			if (x+y)%2 == 0 {
				ps = append(ps, pt)
			} else {
				qs = append(qs, pt)
			}
		}
	}
	o := New(ps, qs)
	for _, p := range ps {
		for _, q := range qs {
			dx, dy := p.X-q.X, p.Y-q.Y
			want := Occupied
			if dx*dx+dy*dy == 1 {
				want = Empty
			}
			if got := o.Classify(p, q); got != want {
				t.Fatalf("(%v,%v)-(%v,%v): %v, want %v", p.X, p.Y, q.X, q.Y, got, want)
			}
		}
	}
}

// A unit square's diagonal circle passes exactly through the other two
// corners: the definition cannot decide it, and the oracle says so.
func TestSquareDiagonalIsBorderline(t *testing.T) {
	o := New([]Point{{0, 0, 1}}, []Point{{1, 1, 1}, {1, 0, 2}, {0, 1, 3}})
	if got := o.Classify(Point{0, 0, 1}, Point{1, 1, 1}); got != Borderline {
		t.Fatalf("diagonal: %v, want borderline", got)
	}
	if got := o.Classify(Point{0, 0, 1}, Point{1, 0, 2}); got != Empty {
		t.Fatalf("side: %v, want empty", got)
	}
}

// The grid scan agrees with a scan of every point on random clustered input.
func TestClassifyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	gen := func(n int) []Point {
		out := make([]Point, n)
		for i := range out {
			cx, cy := float64(rng.IntN(3))*40, float64(rng.IntN(3))*40
			out[i] = Point{X: cx + rng.NormFloat64()*8, Y: cy + rng.NormFloat64()*8, ID: int64(i)}
		}
		return out
	}
	ps, qs := gen(300), gen(250)
	o := New(ps, qs)
	for _, p := range ps[:60] {
		for _, q := range qs {
			if got, want := o.Classify(p, q), naive(p, q, ps, qs); got != want {
				t.Fatalf("p %d q %d: grid %v, naive %v", p.ID, q.ID, got, want)
			}
		}
	}
}

// Bounded returns exactly the Empty pairs under the diameter bound with
// their center in the window.
func TestBoundedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var ps, qs []Point
	for i := 0; i < 400; i++ {
		ps = append(ps, Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: int64(i)})
		qs = append(qs, Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, ID: int64(i)})
	}
	o := New(ps, qs)
	w := Window{20, 30, 60, 55}
	const maxDiam = 9.0
	sure, allowed := o.Bounded(w, maxDiam)
	want := 0
	for _, p := range ps {
		for _, q := range qs {
			cx, cy, r := Circle(p, q)
			if !w.Contains(cx, cy) || 2*r > maxDiam || naive(p, q, ps, qs) != Empty {
				continue
			}
			want++
			if k := (Key{p.ID, q.ID}); !sure[k] && !allowed[k] {
				t.Fatalf("pair %v missing from Bounded", k)
			}
		}
	}
	if want == 0 || len(sure)+len(allowed) != want {
		t.Fatalf("Bounded found %d+%d pairs, naive %d", len(sure), len(allowed), want)
	}
}
