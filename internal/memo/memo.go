// Package memo provides the one concurrency-safe memoization shape the
// compiled-workload pipeline uses everywhere: look up under a lock, and on
// a miss run the build outside it exactly once per key — concurrent cold
// callers wait for the in-flight build instead of duplicating it — then
// keep the first stored value so every caller shares one instance. Machine
// caches, kernel plans and schedule memos across explore, cqla and arch are
// all instances of this Map.
package memo

import (
	"errors"
	"sync"
)

// Map is a lazily-initialized, mutex-guarded memo table. The zero value
// is ready to use, so it embeds in structs without a constructor.
type Map[K comparable, V any] struct {
	mu       sync.Mutex
	m        map[K]V
	inflight map[K]*call[V]
}

// call is one in-flight build; done closes once v and err are final.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// errBuildPanicked is what callers waiting on a build receive when the
// build panicked; the panic itself propagates in the building goroutine.
var errBuildPanicked = errors.New("memo: build panicked")

// Do returns the memoized value for k, invoking build on first use. The
// lock is never held across build, and concurrent callers of a cold key
// coalesce: the first runs build, the others wait for its value or its
// error. A build error is returned to every waiting caller without
// caching, so a later call may retry.
func (c *Map[K, V]) Do(k K, build func() (V, error)) (v V, err error) {
	c.mu.Lock()
	if hit, ok := c.m[k]; ok {
		c.mu.Unlock()
		return hit, nil
	}
	if cl, ok := c.inflight[k]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.v, cl.err
	}
	cl := &call[V]{done: make(chan struct{}), err: errBuildPanicked}
	if c.inflight == nil {
		c.inflight = make(map[K]*call[V])
	}
	c.inflight[k] = cl
	c.mu.Unlock()

	// Deferred so that a panicking build still releases its waiters: cl.err
	// keeps errBuildPanicked unless build returns. A value Seeded while the
	// build ran wins, for the builder and its waiters alike.
	defer func() {
		c.mu.Lock()
		delete(c.inflight, k)
		if cl.err == nil {
			cl.v = c.seedLocked(k, cl.v)
		}
		c.mu.Unlock()
		close(cl.done)
		v, err = cl.v, cl.err
	}()
	cl.v, cl.err = build()
	if cl.err != nil {
		var zero V
		cl.v = zero
	}
	return
}

// Get returns the memoized value for k from an infallible builder.
func (c *Map[K, V]) Get(k K, build func() V) V {
	v, _ := c.Do(k, func() (V, error) { return build(), nil })
	return v
}

// Seed stores v for k unless a value is already memoized (first wins,
// matching Do). It returns the value that ended up in the table.
func (c *Map[K, V]) Seed(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seedLocked(k, v)
}

// seedLocked is Seed with c.mu held.
func (c *Map[K, V]) seedLocked(k K, v V) V {
	if c.m == nil {
		c.m = make(map[K]V)
	}
	if prior, ok := c.m[k]; ok {
		return prior
	}
	c.m[k] = v
	return v
}
