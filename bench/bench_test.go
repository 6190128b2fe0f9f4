package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program's
// own tables from drifting apart.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// smokeResult is the contract's result line plus the report hash printed
// above it.
type smokeResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	hash      string
}

// runSmoke runs one workload at smoke size through the same entry point
// the benchmark command uses.
func runSmoke(t *testing.T, workload, trace, out string) smokeResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-smoke", "-seconds", "0", "-trace", trace, "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res smokeResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result object: %v", args, err)
	}
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "report_hash "); ok {
			res.hash = h
		}
	}
	return res
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the contract of the result line: every metric BENCHMARK.json names
// is there with a finite value, and every correctness and determinism gate
// passed. The simulation workloads run untraced twice: report hash and
// exact metrics must repeat.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	out := t.TempDir()
	for _, w := range bf.Workloads {
		for trace, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
			t.Run(w.Name+[]string{"/untraced", "/traced"}[trace], func(t *testing.T) {
				res := runSmoke(t, w.Name, []string{"0", "1"}[trace], out)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					got, ok := res.Metrics[d.Name]
					if !ok || !finite(got.Value) || got.Unit != d.Unit {
						t.Errorf("metric %s = %+v (present %v)", d.Name, got, ok)
					}
					if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, got.Value)
					}
				}
				if trace == 1 || strings.HasPrefix(w.Name, "serve_") {
					return
				}
				again := runSmoke(t, w.Name, "0", out)
				if res.hash == "" || again.hash != res.hash {
					t.Errorf("report hash %q, then %q", res.hash, again.hash)
				}
				for _, name := range []string{"msgs_per_peer", "bytes_per_peer"} {
					if again.Metrics[name] != res.Metrics[name] {
						t.Errorf("%s = %v, then %v", name, res.Metrics[name], again.Metrics[name])
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
