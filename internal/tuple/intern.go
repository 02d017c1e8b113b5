package tuple

import (
	"sync"

	"terids/internal/tokens"
)

// Interner caches attribute-value tokenizations across records. Streams
// repeat values heavily — the same venue, author, or topic string arrives
// thousands of times — and Tokenize is the dominant per-record construction
// cost, so ingest paths that decode many records benefit from sharing one
// interner. Cached token sets are shared read-only between records, which is
// safe because Record never mutates its token sets after construction.
//
// The cache is bounded: when it reaches capacity it is cleared wholesale
// (cheap, no LRU bookkeeping on the hot path) and re-fills with the current
// working set. Safe for concurrent use.
type Interner struct {
	mu    sync.Mutex
	cache map[string]tokens.Set
	cap   int
}

// defaultInternerCap bounds the value cache; at typical attribute-value
// sizes this is a few MB.
const defaultInternerCap = 1 << 16

// NewInterner returns an interner holding at most capacity distinct values
// (capacity <= 0 selects the default).
func NewInterner(capacity int) *Interner {
	if capacity <= 0 {
		capacity = defaultInternerCap
	}
	return &Interner{cache: make(map[string]tokens.Set, capacity/4), cap: capacity}
}

// tokenize returns the shared token set for v, computing and caching it on
// first sight.
func (in *Interner) tokenize(v string) tokens.Set {
	in.mu.Lock()
	if ts, ok := in.cache[v]; ok {
		in.mu.Unlock()
		return ts
	}
	in.mu.Unlock()
	// Tokenize outside the lock: it allocates and sorts, and two goroutines
	// racing on the same fresh value just do the work twice, harmlessly.
	ts := tokens.Tokenize(v)
	in.mu.Lock()
	if len(in.cache) >= in.cap {
		in.cache = make(map[string]tokens.Set, in.cap/4)
	}
	in.cache[v] = ts
	in.mu.Unlock()
	return ts
}

// Len reports how many distinct values are currently cached.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.cache)
}

// NewRecord is NewRecord with interned tokenization: identical to the
// package-level constructor (same validation, same resulting Record) except
// that token sets for repeated values are shared via the interner.
func (in *Interner) NewRecord(schema *Schema, rid string, stream int, seq int64, values []string) (*Record, error) {
	return newRecord(schema, rid, stream, seq, values, in.tokenize)
}
