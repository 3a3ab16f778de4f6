// Package freelist keeps released slices for reuse by the next run of the
// same shape: the simulator's cache lines and the PEBS drain buffers.
package freelist

import "sync"

// List is a bounded free list of cleared slices, keyed by a shape that
// says which takers may reuse a slice, safe for concurrent use. It is not
// a sync.Pool: a caller that builds its slices per run allocates enough
// between one release and the next take for the garbage collector to run
// once or twice, and a sync.Pool keeps what it holds through one
// collection only.
type List[K comparable, E any] struct {
	// Keep caps the slices held per key; a Put past it drops the slice.
	Keep int
	mu   sync.Mutex
	free map[K][][]E
}

// Take returns a released slice of key k at its full capacity, every
// element zero, or a new one of length n when the list holds none.
func (l *List[K, E]) Take(k K, n int) []E {
	var s []E
	l.mu.Lock()
	if free := l.free[k]; len(free) > 0 {
		s = free[len(free)-1]
		free[len(free)-1] = nil
		l.free[k] = free[:len(free)-1]
	}
	l.mu.Unlock()
	if s == nil {
		s = make([]E, n)
	}
	return s
}

// Put clears s to its full capacity and keeps it for a later Take of key
// k. The caller must hold no view of s afterwards.
func (l *List[K, E]) Put(k K, s []E) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free[k]) >= l.Keep {
		return
	}
	if l.free == nil {
		l.free = map[K][][]E{}
	}
	l.free[k] = append(l.free[k], s)
}
