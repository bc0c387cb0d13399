package main

import (
	"strings"
	"testing"
	"time"

	"repro/perfbench/oracle"
)

// TestCheckLiveRead feeds the live read checker answers naming points that
// could not have been present during the read.
func TestCheckLiveRead(t *testing.T) {
	// Three P points far apart, each with a Q point beside it: the pairs
	// (1,10) and (2,20) are neighbours, so their circles are empty.
	P := []oracle.Point{{X: 0, Y: 0, ID: 1}, {X: 100, Y: 0, ID: 2}, {X: 200, Y: 0, ID: 3}}
	Q := []oracle.Point{{X: 1, Y: 0, ID: 10}, {X: 101, Y: 0, ID: 20}, {X: 201, Y: 0, ID: 30}}
	o := oracle.New(P, Q)
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	never := at(1e6)
	rd := readResult{sent: at(10), done: at(11), region: oracle.Window{MinX: -1e3, MinY: -1e3, MaxX: 1e3, MaxY: 1e3}}
	rowFor := func(p, q oracle.Point) row {
		cx, cy, r := oracle.Circle(p, q)
		return row{PID: p.ID, QID: q.ID, CX: cx, CY: cy, Radius: r}
	}

	for _, tc := range []struct {
		name string
		life *life // of P point 2
		want string
	}{
		{"present throughout", &life{delSent: never, delAcked: never}, ""},
		{"inserted during the read", &life{insSent: at(10.5), acked: at(11.5), delSent: never, delAcked: never}, ""},
		{"deleted during the read", &life{delSent: at(10.5), delAcked: at(11.5)}, ""},
		{"delete acknowledged before the read", &life{delSent: at(5), delAcked: at(6)}, "deleted before the read began"},
		{"insert sent after the read", &life{insSent: at(12), acked: at(13), delSent: never, delAcked: never}, "insert was not sent"},
		{"never inserted", nil, "insert was not sent"},
	} {
		lives := map[int64]*life{
			1: {delSent: never, delAcked: never},
			3: {delSent: never, delAcked: never},
		}
		if tc.life != nil {
			lives[2] = tc.life
		}
		rd.rows = []row{rowFor(P[0], Q[0]), rowFor(P[1], Q[1])}
		err := checkLiveRead(o, lives, rd, 10)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A circle holding a point present throughout the read is unsound; one
	// holding a point deleted during the read may be either.
	a, b := oracle.Point{X: 0, Y: 0, ID: 1}, oracle.Point{X: 10, Y: 0, ID: 10}
	mid := oracle.Point{X: 5, Y: 1, ID: 4}
	o = oracle.New([]oracle.Point{a, mid}, []oracle.Point{b})
	wide := rowFor(a, b)
	for _, tc := range []struct {
		name string
		mid  *life
		bad  bool
	}{
		{"witness present", &life{delSent: never, delAcked: never}, true},
		{"witness deleted during the read", &life{delSent: at(10.5), delAcked: at(10.6)}, false},
	} {
		lives := map[int64]*life{1: {delSent: never, delAcked: never}, 4: tc.mid}
		rd.rows = []row{wide}
		if err := checkLiveRead(o, lives, rd, 10); (err != nil) != tc.bad {
			t.Errorf("%s: got %v, want failure %v", tc.name, err, tc.bad)
		}
	}
}
