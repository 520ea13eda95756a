package testutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// LeakFence is a package's TestMain body: it runs the tests and then
// fails the package when the goroutine count has not come back to what
// it was before the first test within a bounded wait after the last.
// The race detector finds no leaked goroutine and a passing test hides
// one; packages whose code starts goroutines that outlive a call (a
// hedge loser, a stream's context watcher, a background pool drain) run
// behind this fence so that each of them provably ends.
func LeakFence(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		// A fuzzing run's coordinator starts goroutines of its own (signal
		// handling) that outlive m.Run; the seed corpus runs under the
		// fence with every plain `go test`.
		os.Exit(code)
	}
	// Only a passing run is fenced: a failed test may have bailed out
	// before its own cleanup, and its failure is the one worth reading.
	for deadline := time.Now().Add(5 * time.Second); code == 0 && runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "leak fence: %d goroutines before the tests, %d still running 5s after them:\n", before, runtime.NumGoroutine())
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
	}
	os.Exit(code)
}
