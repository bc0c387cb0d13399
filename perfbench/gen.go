package main

import (
	"math"
	"math/rand/v2"

	"repro/perfbench/oracle"
	"repro/rcj"
)

// Inputs live in a square domain. Points gather in Gaussian clusters — the
// paper's "clustered" synthetic setting — whose centers sit on a jittered
// grid shared by both inputs of a join (restaurants and residences crowd
// the same districts), plus a share of uniform background noise. The grid
// keeps the density statistics, and so the work per operation, alike
// across seeds; the jitter and the draws keep every seed's inputs distinct.
const (
	domain       = 10000.0
	clusterGrid  = 4 // clusterGrid × clusterGrid clusters
	clusterSigma = 450.0
	noiseEvery   = 10 // every n-th point is uniform noise
)

type center struct{ x, y float64 }

// rng returns the generator for one input stream of a seed. Each stream
// has its own key, so adding a draw to one input never shifts another.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// clusterCenters draws the jittered grid of cluster centers.
func clusterCenters(r *rand.Rand) []center {
	cell := domain / clusterGrid
	var cs []center
	for gy := 0; gy < clusterGrid; gy++ {
		for gx := 0; gx < clusterGrid; gx++ {
			cs = append(cs, center{
				cell * (float64(gx) + 0.5 + 0.4*(r.Float64()-0.5)),
				cell * (float64(gy) + 0.5 + 0.4*(r.Float64()-0.5)),
			})
		}
	}
	return cs
}

// clustered returns n points with IDs firstID, firstID+1, ..., spread over
// the clusters in turn.
func clustered(r *rand.Rand, cs []center, n int, firstID int64) []rcj.Point {
	pts := make([]rcj.Point, 0, n)
	for len(pts) < n {
		i := len(pts)
		var x, y float64
		if i%noiseEvery == noiseEvery-1 {
			x, y = domain*r.Float64(), domain*r.Float64()
		} else {
			c := cs[i%len(cs)]
			x, y = c.x+clusterSigma*r.NormFloat64(), c.y+clusterSigma*r.NormFloat64()
		}
		if x < 0 || y < 0 || x > domain || y > domain {
			continue
		}
		pts = append(pts, rcj.Point{X: x, Y: y, ID: firstID + int64(i)})
	}
	return pts
}

// inputs returns the two clustered inputs of a seed, n and m points, and
// their cluster centers.
func inputs(seed uint64, n, m int) (p, q []rcj.Point, cs []center) {
	cs = clusterCenters(rng(seed, 0))
	return clustered(rng(seed, 1), cs, n, 0), clustered(rng(seed, 2), cs, m, 0), cs
}

// windowGen places query windows cluster by cluster in turn, each centered
// a Gaussian draw (half the cluster spread) away from its cluster's center,
// so every seed queries the same mix of dense cores and sparser fringes.
type windowGen struct {
	r    *rand.Rand
	cs   []center
	next int
}

func (g *windowGen) window(w, h float64) rcj.Rect {
	c := g.cs[g.next%len(g.cs)]
	g.next++
	cx := c.x + clusterSigma/2*g.r.NormFloat64()
	cy := c.y + clusterSigma/2*g.r.NormFloat64()
	x := math.Min(math.Max(cx-w/2, 0), domain-w)
	y := math.Min(math.Max(cy-h/2, 0), domain-h)
	return rcj.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func toOracle(pts []rcj.Point) []oracle.Point {
	out := make([]oracle.Point, len(pts))
	for i, p := range pts {
		out[i] = oracle.Point{X: p.X, Y: p.Y, ID: p.ID}
	}
	return out
}
