package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

var errNoResult = errors.New("run printed no result")

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// default, exclusive method): the cut points Q1, Q2, Q3.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// lastJSONLine extracts the result line a run printed last.
func lastJSONLine(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if last == "" {
		return nil, errNoResult
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// repeatRuns runs the workload n times, one process per run with seeds
// seed..seed+n-1, and prints each metric's median, quartiles and spread
// (Q3-Q1 over the median), plus operations attempted and failed.
func repeatRuns(sp spec, seed int64, seconds float64, traceOn int, out string, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", sp.name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceOn), "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		r, err := lastJSONLine(stdout)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("%s seed=%d correct=%v attempted=%d failed=%d", sp.name, s, r.Correct, r.Attempted, r.Failed)
		for _, name := range sortedKeys(r.Metrics) {
			fmt.Printf(" %s=%.6g", name, r.Metrics[name].Value)
		}
		fmt.Println()
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := sortedKeys(values)
	fmt.Printf("%-34s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-34s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], q1, q2, q3, 100*spread)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
