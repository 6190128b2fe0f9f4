package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// Without -workload the program re-executes itself once per workload run,
// so peak_rss_mb belongs to that run alone.

// childResult is what the parent reads back from a child's output.
type childResult struct {
	Correct bool              `json:"correct"`
	Metrics map[string]metric `json:"metrics"`
	hash    string
}

func runChild(name string, seed int64, seconds float64, trace int, smoke bool, outDir string, echo io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "--out", outDir}
	if smoke {
		args = append(args, "--smoke")
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if echo != nil {
		_, _ = echo.Write(buf.Bytes())
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", name, runErr)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	res := &childResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "report_hash "); ok {
			res.hash = h
		}
	}
	return res, nil
}

// runAll runs every workload in child processes: untraced then traced, or
// with repeat > 0 that many untraced sets whose spread is judged against
// the bounds.
func runAll(seed int64, seconds float64, smoke bool, repeat int, outDir string, stdout, stderr io.Writer) error {
	if repeat <= 0 {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if _, err := runChild(w.name, seed, seconds, trace, smoke, outDir, stdout); err != nil {
					return err
				}
			}
		}
		return nil
	}
	failed := 0
	for _, w := range workloads {
		values := make(map[string][]float64)
		hashes := make(map[string]bool)
		for set := 0; set < repeat; set++ {
			res, err := runChild(w.name, seed, seconds, 0, smoke, outDir, nil)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
			hashes[res.hash] = true
		}
		fmt.Fprintf(stdout, "== %s: %d sets\n", w.name, repeat)
		fmt.Fprintf(stdout, "%-16s %14s %14s %14s %9s %7s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, d := range endToEnd {
			xs := values[d.Name]
			q1, q2, q3 := xs[0], xs[0], xs[0]
			if len(xs) > 1 {
				q1, q2, q3 = quartiles(xs)
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := (hi - lo) / q2
			verdict := ""
			if spread > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				failed++
			}
			fmt.Fprintf(stdout, "%-16s %14.6g %14.6g %14.6g %8.2f%% %6.0f%%%s\n", d.Name, q2, q1, q3, 100*spread, 100*d.Bound, verdict)
		}
		if len(hashes) > 1 {
			fmt.Fprintf(stdout, "report hashes differ between sets: %d distinct\n", len(hashes))
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d (workload, metric) pairs spread beyond their bound or changed their report hash", failed)
	}
	return nil
}
