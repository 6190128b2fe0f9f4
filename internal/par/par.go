// Package par is the tiny worker-pool primitive shared by the experiment
// sweeps, the CLI replica harness and the sharded summary store's large
// merges and install splits: fan n index-addressed jobs across a bounded
// set of goroutines. It is for work that outweighs a goroutine's start;
// a §5.2 query walks its shards on the caller's goroutine instead.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// panicValue wraps a recovered panic so it can be re-raised in the caller.
type panicValue struct {
	val any
}

// ForEach runs fn(0..n-1) on at most `workers` goroutines and returns the
// lowest-index error among the jobs that ran (deterministic regardless of
// scheduling). workers <= 0 uses one worker per CPU; a single worker runs
// inline. Like the sequential path, a failure stops the sweep early: no
// new jobs are dispatched after the first error (jobs already running
// finish). Callers write results into index i of a pre-sized slice, so
// output order never depends on scheduling.
//
// A panicking job does not crash its worker goroutine: the panic is
// captured and re-raised on the calling goroutine with its original value
// (so recover() can still type-assert it, exactly as on the inline
// single-worker path) once every in-flight job has finished, again picking
// the lowest-index panic for determinism. A panic also stops dispatch,
// like an error.
func ForEach(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	errs := make([]error, n)
	panics := make([]*panicValue, n)
	var failed atomic.Bool
	var wg sync.WaitGroup
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = &panicValue{val: r}
				failed.Store(true)
			}
		}()
		if err := fn(i); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue
				}
				run(i)
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i].val)
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
