// Command benchgate fails when a benchmark's allocations exceed a bound —
// the allocation-regression smoke test of the hot paths, reimplemented on
// the standard library so CI needs no third-party tool. It reads `go test
// -bench -benchmem` output and asserts allocs/op for the named benchmarks.
//
// Usage:
//
//	go test -run='^$' -bench='FrameEncode|EventDispatch' -benchmem ./... | \
//	    go run ./internal/tools/benchgate \
//	        -gate BenchmarkFrameEncode=0 -gate BenchmarkEventDispatch=0
//
// Each -gate is NAME=MAX where NAME is a substring match against the
// benchmark name (less the -GOMAXPROCS suffix `go test` appends when
// GOMAXPROCS is not 1; benchgate assumes it runs under the GOMAXPROCS of
// the benchmarks it reads, as at the end of a pipe) and MAX the
// allowed allocs/op; the flag repeats for multiple gates. Every result
// line matching a gate must satisfy its bound, and every gate must
// match at least one line — a benchmark that silently stopped running is
// itself a failure.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// gate is one NAME=MAX allocation bound.
type gate struct {
	name      string
	maxAllocs int64
	matched   int
	violated  int
}

func main() {
	var gates []*gate
	flag.Func("gate", "NAME=MAX allocation gate (repeatable)", func(s string) error {
		name, max, ok := strings.Cut(s, "=")
		if !ok || name == "" {
			return fmt.Errorf("want NAME=MAX, got %q", s)
		}
		n, err := strconv.ParseInt(max, 10, 64)
		if err != nil {
			return fmt.Errorf("bad alloc bound in %q: %v", s, err)
		}
		gates = append(gates, &gate{name: name, maxAllocs: n})
		return nil
	})
	flag.Parse()
	if len(gates) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -gate NAME=MAX [-gate NAME=MAX ...] < bench-output")
		os.Exit(2)
	}

	bad := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the report through for the CI log
		name, allocs, ok := parseBenchLine(line, runtime.GOMAXPROCS(0))
		if !ok {
			continue
		}
		for _, g := range gates {
			if !strings.Contains(name, g.name) {
				continue
			}
			g.matched++
			if allocs > g.maxAllocs {
				bad++
				g.violated++
				fmt.Fprintf(os.Stderr, "benchgate: %s allocates %d/op, want <= %d\n", name, allocs, g.maxAllocs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading input: %v\n", err)
		os.Exit(2)
	}
	for _, g := range gates {
		if g.matched == 0 {
			fmt.Fprintf(os.Stderr, "benchgate: no benchmark matching %q in the input — did it run with -benchmem?\n", g.name)
			bad++
			continue
		}
		if g.violated == 0 {
			fmt.Printf("benchgate: %d benchmark(s) matching %q within %d allocs/op\n", g.matched, g.name, g.maxAllocs)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// parseBenchLine extracts the name and allocs/op from one `go test -bench
// -benchmem` result line run at the given GOMAXPROCS, e.g.
//
//	BenchmarkFrameEncode-8   28143813   44.32 ns/op   0 B/op   0 allocs/op
//
// The name loses only its trailing -procs suffix (which `go test` omits at
// 1), so a sub-benchmark named sharded-2 keeps its own name. ok is false
// for non-result lines and for results without the -benchmem allocation
// column.
func parseBenchLine(line string, procs int) (name string, allocs int64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false
	}
	for i, f := range fields {
		if f == "allocs/op" && i > 0 {
			n, err := strconv.ParseInt(fields[i-1], 10, 64)
			if err != nil {
				return "", 0, false
			}
			name = fields[0]
			if procs != 1 {
				name = strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
			}
			return name, n, true
		}
	}
	return "", 0, false
}
