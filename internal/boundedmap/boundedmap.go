// Package boundedmap provides a concurrency-safe map capped at a fixed
// number of entries that drops every entry when a new key would pass the
// cap. Dropping whole needs no recency bookkeeping on the hit path and
// suits maps whose entries a slower tier beneath can rebuild: a dropped
// entry costs one slow lookup, never a wrong answer.
package boundedmap

import (
	"maps"
	"sync"
)

// Map is a mutex-guarded map of at most bound entries. Build one with New.
type Map[K comparable, V any] struct {
	bound int

	mu sync.Mutex
	m  map[K]V
}

// New returns an empty map that holds at most bound entries (at least 1).
func New[K comparable, V any](bound int) *Map[K, V] {
	return &Map[K, V]{bound: max(bound, 1), m: map[K]V{}}
}

// Get returns the value stored under k and whether there is one.
func (m *Map[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.m[k]
	return v, ok
}

// Put stores v under k. A known key is updated in place; a new key when
// the map is full drops every entry first.
func (m *Map[K, V]) Put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[k]; !ok && len(m.m) >= m.bound {
		clear(m.m)
	}
	m.m[k] = v
}

// DeleteFunc removes every entry for which del returns true.
func (m *Map[K, V]) DeleteFunc(del func(K, V) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	maps.DeleteFunc(m.m, del)
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
