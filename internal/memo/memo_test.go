package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoMemoizes(t *testing.T) {
	var c Map[int, *int]
	var builds int
	v1, err := c.Do(1, func() (*int, error) { builds++; n := 10; return &n, nil })
	if err != nil || *v1 != 10 {
		t.Fatalf("Do = (%v, %v)", v1, err)
	}
	v2, err := c.Do(1, func() (*int, error) { builds++; n := 99; return &n, nil })
	if err != nil || v2 != v1 {
		t.Fatalf("second Do returned a different instance")
	}
	if builds != 1 {
		t.Errorf("built %d times, want 1", builds)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	var c Map[string, int]
	boom := errors.New("boom")
	if _, err := c.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not surfaced: %v", err)
	}
	v, err := c.Do("k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after error = (%d, %v), want (7, nil)", v, err)
	}
}

func TestSeedFirstWins(t *testing.T) {
	var c Map[int, string]
	if got := c.Seed(1, "a"); got != "a" {
		t.Fatalf("Seed on empty = %q", got)
	}
	if got := c.Seed(1, "b"); got != "a" {
		t.Errorf("Seed did not keep the first value: %q", got)
	}
	if got := c.Get(1, func() string { return "c" }); got != "a" {
		t.Errorf("Get after Seed = %q, want a", got)
	}
}

// TestConcurrentConverges proves every racing caller observes one shared
// instance, whichever build won.
func TestConcurrentConverges(t *testing.T) {
	var c Map[int, *int]
	var wg sync.WaitGroup
	var builds atomic.Int64
	results := make([]*int, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Get(5, func() *int { builds.Add(1); n := i; return &n })
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different instance", i)
		}
	}
	if builds.Load() < 1 {
		t.Error("no build ran")
	}
}

// coldCallers runs callers concurrent Do calls on one cold key of c. The
// first build to start is held open until every caller has been started
// and has had a chance to reach the in-flight build, then returns v, err.
// It returns each caller's result and how many times build ran.
func coldCallers(c *Map[int, int], callers, v int, err error) ([]int, []error, int64) {
	var builds atomic.Int64
	var once sync.Once
	started, release := make(chan struct{}), make(chan struct{})
	var arrived, done sync.WaitGroup
	arrived.Add(callers)
	done.Add(callers)
	vals, errs := make([]int, callers), make([]error, callers)
	for i := range vals {
		go func(i int) {
			defer done.Done()
			arrived.Done()
			vals[i], errs[i] = c.Do(1, func() (int, error) {
				builds.Add(1)
				once.Do(func() { close(started) })
				<-release
				return v, err
			})
		}(i)
	}
	arrived.Wait()
	<-started
	// Yielding lets the remaining callers reach Do before the build
	// returns. Correct coalescing passes however the scheduler runs; the
	// yields only make a regression to duplicate builds show reliably.
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	close(release)
	done.Wait()
	return vals, errs, builds.Load()
}

// TestConcurrentColdCallersBuildOnce pins the coalescing contract: N
// callers that all miss on the same cold key run build exactly once, and
// every one of them receives the built value.
func TestConcurrentColdCallersBuildOnce(t *testing.T) {
	var c Map[int, int]
	vals, errs, builds := coldCallers(&c, 16, 42, nil)
	if builds != 1 {
		t.Errorf("build ran %d times for %d concurrent cold callers, want 1", builds, len(vals))
	}
	for i := range vals {
		if vals[i] != 42 || errs[i] != nil {
			t.Errorf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}
}

// TestWaitersShareBuildError checks that callers coalesced onto a failing
// build receive its error, and that the failure is not cached.
func TestWaitersShareBuildError(t *testing.T) {
	var c Map[int, int]
	boom := errors.New("boom")
	_, errs, _ := coldCallers(&c, 8, 0, boom)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d got %v, want the build error", i, err)
		}
	}
	if v, err := c.Do(1, func() (int, error) { return 5, nil }); err != nil || v != 5 {
		t.Errorf("retry after a shared error = (%d, %v), want (5, nil)", v, err)
	}
}

// TestPanickingBuildReleasesWaiters checks that a build that panics still
// releases a caller waiting on it, with an error, and leaves the key
// buildable.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	var c Map[int, int]
	entered, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do(1, func() (int, error) {
			close(entered)
			<-release
			panic("build failed")
		})
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, err := c.Do(1, func() (int, error) { return 9, nil })
		waiter <- err
	}()
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	close(release)
	if r := <-panicked; r == nil {
		t.Fatal("the build's panic did not propagate to its caller")
	}
	// The waiter either coalesced onto the panicking build (error) or
	// arrived after it and built the key itself (nil); either way it
	// returns rather than hang.
	if err := <-waiter; err != nil && !errors.Is(err, errBuildPanicked) {
		t.Errorf("waiter got %v", err)
	}
	if v, err := c.Do(1, func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Errorf("Do after a panicking build = (%d, %v), want (9, nil)", v, err)
	}
}
