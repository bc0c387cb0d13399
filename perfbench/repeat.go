package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// runLine is the result object a run prints as its last line.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repeatRuns runs one workload n times as child processes, seeds seed to
// seed+n-1, and prints each metric's median and spread — the distance
// between the first and third quartile as a share of the median — beside
// the bound BENCHMARK.json gives it (none for the host-bound figures). This is how the bounds were set and how
// they are re-checked.
func repeatRuns(workload string, seed uint64, seconds float64, trace, n int, benchJSON string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile(benchJSON); err == nil {
		var def struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &def); err != nil {
			return fmt.Errorf("%s: %w", benchJSON, err)
		}
		for _, m := range def.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []float64
	allCorrect := true
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var rl runLine
		if err := json.Unmarshal(lines[len(lines)-1], &rl); err != nil {
			return fmt.Errorf("seed %d: bad result line: %w", s, err)
		}
		allCorrect = allCorrect && rl.Correct
		failShares = append(failShares, float64(rl.Failed)/float64(rl.Attempted))
		var detail struct {
			Notes struct {
				Steal float64 `json:"cpu_steal_share"`
				Ref   float64 `json:"ref_cpu_ms"`
			} `json:"notes"`
			Host map[string]metricValue `json:"host_bound"`
		}
		if len(lines) > 1 {
			json.Unmarshal(lines[len(lines)-2], &detail)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d cpu_steal_share=%.3f ref_cpu_ms=%.4g",
			s, rl.Correct, rl.Attempted, rl.Failed, detail.Notes.Steal, detail.Notes.Ref)
		for _, name := range []string{"op_ms_p50", "cpu_ms_per_op"} {
			if v, ok := detail.Host[name]; ok {
				fmt.Printf(" %s=%.4g", name, v.Value)
			}
		}
		if v, ok := rl.Metrics["cpu_per_op_ref"]; ok {
			fmt.Printf(" cpu_per_op_ref=%.4g", v.Value)
		}
		fmt.Println()
		// The host-bound figures of the detail line join the table without
		// a bound: they are reported, not gated.
		for _, m := range []map[string]metricValue{rl.Metrics, detail.Host} {
			for name, v := range m {
				values[name] = append(values[name], v.Value)
				units[name] = v.Unit
			}
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tspread\tbound\tspread<bound/3")
	for _, name := range names {
		xs := append([]float64(nil), values[name]...)
		sort.Float64s(xs)
		med := median(append([]float64(nil), xs...))
		q1, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		b, ok := bounds[name]
		verdict, bstr := "", "-"
		if ok {
			bstr = strconv.FormatFloat(b, 'g', -1, 64)
			verdict = strconv.FormatBool(spread < b/3)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%s\t%s\n", name, units[name], med, q1, q3, spread, bstr, verdict)
	}
	tw.Flush()
	fmt.Printf("all correct: %v; failed shares: %v\n", allCorrect, failShares)
	return nil
}

// quartiles returns the first and third quartile of sorted xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method).
func quartiles(xs []float64) (q1, q3 float64) {
	ld := len(xs)
	if ld < 2 {
		if ld == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
