package metrics

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type block struct {
	Count   int64
	Total   time.Duration
	Entries int
	Name    string
	Addrs   []string
}

func TestLoad(t *testing.T) {
	live := block{Entries: 3, Name: "b", Addrs: []string{"x", "y"}}
	atomic.AddInt64(&live.Count, 7)
	atomic.AddInt64((*int64)(&live.Total), int64(5*time.Millisecond))
	want := block{Count: 7, Total: 5 * time.Millisecond, Entries: 3, Name: "b", Addrs: []string{"x", "y"}}
	if got := Load(&live); !reflect.DeepEqual(got, want) {
		t.Fatalf("Load = %+v, want %+v", got, want)
	}
}

// TestLoadUnderAdd loads a block while eight goroutines add to it: every
// load sees each counter no smaller than the load before, and the load
// after the adders finish sees every add. Run it under -race: Load's
// reads must pair with the adders' atomics.
func TestLoadUnderAdd(t *testing.T) {
	const adders, adds = 8, 2000
	var live block
	var wg sync.WaitGroup
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				atomic.AddInt64(&live.Count, 1)
				atomic.AddInt64((*int64)(&live.Total), 2)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev block
	for loading := true; loading; {
		select {
		case <-done:
			loading = false
		default:
		}
		cur := Load(&live)
		if cur.Count < prev.Count || cur.Total < prev.Total {
			t.Fatalf("load went back: %+v after %+v", cur, prev)
		}
		prev = cur
	}
	if got := Load(&live); got.Count != adders*adds || got.Total != 2*adders*adds {
		t.Fatalf("final load %+v, want Count %d and Total %d", got, adders*adds, 2*adders*adds)
	}
}
