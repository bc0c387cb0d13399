package main

import (
	"fmt"
	"math"

	"repro/perfbench/oracle"
)

// row is one result pair as a response reports it.
type row struct {
	PID    int64   `json:"p_id"`
	QID    int64   `json:"q_id"`
	CX     float64 `json:"cx"`
	CY     float64 `json:"cy"`
	Radius float64 `json:"r"`
}

// constraint is the pair-level predicate of a query (rcj.Query.Matches
// semantics): diameter at most maxDiam (0 = none), center inside region
// (nil = none).
type constraint struct {
	maxDiam float64
	region  *oracle.Window
	// member, when set, limits the points a circle must be empty of to
	// those present for the whole query (a live index changing under it).
	member func(oracle.Side, int64) bool
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkRows verifies every row of one answer against the oracle: both
// endpoints exist, the reported circle is their smallest enclosing circle,
// the row satisfies the query's predicates, no pair repeats, and the circle
// holds no other input point. It returns the first problem found.
func checkRows(o *oracle.Oracle, rows []row, c constraint) error {
	seen := make(map[oracle.Key]bool, len(rows))
	for _, rw := range rows {
		k := oracle.Key{P: rw.PID, Q: rw.QID}
		if seen[k] {
			return fmt.Errorf("pair %v returned twice", k)
		}
		seen[k] = true
		p, okP := o.P(rw.PID)
		q, okQ := o.Q(rw.QID)
		if !okP || !okQ {
			return fmt.Errorf("pair %v names a point that is not in the input", k)
		}
		cx, cy, r := oracle.Circle(p, q)
		if !near(cx, rw.CX) || !near(cy, rw.CY) || !near(r, rw.Radius) {
			return fmt.Errorf("pair %v reports circle (%g,%g,%g), want (%g,%g,%g)", k, rw.CX, rw.CY, rw.Radius, cx, cy, r)
		}
		if c.maxDiam > 0 && 2*rw.Radius > c.maxDiam {
			return fmt.Errorf("pair %v diameter %g exceeds the bound %g", k, 2*rw.Radius, c.maxDiam)
		}
		if c.region != nil && !c.region.Contains(rw.CX, rw.CY) {
			return fmt.Errorf("pair %v center (%g,%g) outside the region %v", k, rw.CX, rw.CY, *c.region)
		}
		if o.ClassifyAmong(p, q, c.member) == oracle.Occupied {
			return fmt.Errorf("pair %v is unsound: its circle holds another point", k)
		}
	}
	return nil
}

// checkComplete verifies that rows contain every pair the oracle is sure
// of for a bounded query (center in w, diameter at most maxDiam).
func checkComplete(o *oracle.Oracle, rows []row, w oracle.Window, maxDiam float64) error {
	sure, _ := o.Bounded(w, maxDiam)
	got := make(map[oracle.Key]bool, len(rows))
	for _, rw := range rows {
		got[oracle.Key{P: rw.PID, Q: rw.QID}] = true
	}
	for k := range sure {
		if !got[k] {
			return fmt.Errorf("pair %v missing from a bounded answer (%d pairs, oracle %d)", k, len(rows), len(sure))
		}
	}
	return nil
}

// rowBefore is the engine's ranking order: ascending radius, then P ID,
// then Q ID.
func rowBefore(a, b row) bool {
	if a.Radius != b.Radius {
		return a.Radius < b.Radius
	}
	if a.PID != b.PID {
		return a.PID < b.PID
	}
	return a.QID < b.QID
}

// checkTopK verifies a top-k answer: at most k rows, strictly in ranking
// order, each valid under checkRows, and — when full — every pair the
// oracle is sure of that ranks strictly tighter than the k-th row present.
// A short answer must hold every qualifying pair.
func checkTopK(o *oracle.Oracle, rows []row, k int, c constraint, complete bool) error {
	if len(rows) > k {
		return fmt.Errorf("top-%d answer has %d rows", k, len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if !rowBefore(rows[i-1], rows[i]) {
			return fmt.Errorf("top-%d answer out of order at row %d", k, i)
		}
	}
	if err := checkRows(o, rows, c); err != nil {
		return err
	}
	if !complete || c.region == nil {
		return nil
	}
	bound := c.maxDiam
	if len(rows) == k {
		bound = math.Min(bound, 2*rows[k-1].Radius)
	}
	sure, _ := o.Bounded(*c.region, bound)
	got := make(map[oracle.Key]bool, len(rows))
	for _, rw := range rows {
		got[oracle.Key{P: rw.PID, Q: rw.QID}] = true
	}
	for key := range sure {
		p, _ := o.P(key.P)
		q, _ := o.Q(key.Q)
		_, _, r := oracle.Circle(p, q)
		if len(rows) == k && !(r < rows[k-1].Radius*(1-1e-9)) {
			continue // ties with the k-th pair may rank either way
		}
		if !got[key] {
			return fmt.Errorf("top-%d answer misses pair %v (radius %g)", k, key, r)
		}
	}
	return nil
}

// fingerprint is an order-independent digest of a pair set, so repeated
// answers can be compared with one checked answer in constant memory.
type fingerprint struct {
	n        int
	sum, xor uint64
}

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (f *fingerprint) add(pid, qid int64) {
	h := mix(uint64(pid)<<32 ^ uint64(qid)*0x9e3779b97f4a7c15)
	f.n++
	f.sum += h
	f.xor ^= mix(h)
}
