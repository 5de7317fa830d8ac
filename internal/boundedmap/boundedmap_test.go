package boundedmap

import (
	"strconv"
	"sync"
	"testing"
)

// TestDropsWholeAtBound: the map grows to its bound, a known key is
// updated in place, and a new key past the bound drops every entry before
// it is added.
func TestDropsWholeAtBound(t *testing.T) {
	const bound = 8
	m := New[string, int](bound)
	for i := 0; i < bound; i++ {
		m.Put(strconv.Itoa(i), i)
	}
	m.Put("0", 100)
	if n := m.Len(); n != bound {
		t.Fatalf("map holds %d entries, want %d", n, bound)
	}
	if v, ok := m.Get("0"); !ok || v != 100 {
		t.Fatalf("Get(0) = %d, %v after an update, want 100, true", v, ok)
	}
	m.Put("new", 1)
	if n := m.Len(); n != 1 {
		t.Fatalf("map holds %d entries after passing its bound, want 1", n)
	}
	if _, ok := m.Get("1"); ok {
		t.Fatal("Get(1) found an entry the drop should have removed")
	}
	if v, ok := m.Get("new"); !ok || v != 1 {
		t.Fatalf("Get(new) = %d, %v, want 1, true", v, ok)
	}
}

// TestDeleteFunc removes exactly the entries the predicate names.
func TestDeleteFunc(t *testing.T) {
	m := New[string, string](8)
	m.Put("a", "x")
	m.Put("b", "y")
	m.Put("c", "x")
	m.DeleteFunc(func(_, v string) bool { return v == "x" })
	if n := m.Len(); n != 1 {
		t.Fatalf("map holds %d entries, want 1", n)
	}
	if v, ok := m.Get("b"); !ok || v != "y" {
		t.Fatalf("Get(b) = %q, %v, want y, true", v, ok)
	}
}

// TestConcurrentUse hammers one small map from racing goroutines — run
// with -race.
func TestConcurrentUse(t *testing.T) {
	m := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Put(i%40, i)
				m.Get(i % 40)
				if i%100 == 0 {
					m.DeleteFunc(func(k, _ int) bool { return k%2 == 0 })
				}
			}
		}()
	}
	wg.Wait()
	if n := m.Len(); n > 16 {
		t.Fatalf("map holds %d entries, want at most 16", n)
	}
}
