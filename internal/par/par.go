// Package par is the deterministic fork-join execution subsystem: the one
// place in the repository where goroutines are allowed (enforced by the
// ecolint "goroutine" rule). It shards per-server control-round work across
// a fixed worker pool and merges results in shard-index order, so any code
// built on it produces bit-identical output at every worker count.
//
// The determinism contract rests on three rules:
//
//  1. Static sharding. Shards(n) depends only on n — never on the worker
//     count, GOMAXPROCS, or load — so the same item always lands in the
//     same shard and shard-local state (scratch buffers, rng streams) is
//     schedule-independent.
//
//  2. No shared mutable state inside a shard callback. Workers write results
//     into index-addressed slots (slot[i], one per item); they never fold
//     into a shared accumulator. Float addition is not associative, so any
//     cross-shard reduction order other than the sequential one would move
//     goldens.
//
//  3. Ordered reduction. The caller merges slots sequentially in item-index
//     order after Range returns, reproducing the exact float-operation order
//     of the sequential loop. Panics are replayed the same way: if several
//     shards panic, Range re-panics the one from the lowest shard index,
//     which is the one the sequential loop would have hit first.
//
// Randomness: callbacks must draw only from per-item rng streams derived by
// label (rng.Source.SplitIndex), never from a stream shared across items.
// Per-item streams make the draw sequence independent of both the worker
// count and the shard layout.
//
// A nil *Pool is valid and means "sequential": Range and For run inline on
// the calling goroutine. New(0) and New(1) also run inline, so Workers=1
// exercises the same code path as Workers=8 without any goroutines.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// maxShards caps the number of shards per Range call: 256 is large enough
// to load-balance any realistic worker count while keeping per-call task
// overhead negligible for the 100k-server sweeps. minShardItems floors the
// shard size so tiny inputs do not dissolve into per-item channel traffic.
// Both are constants — never derived from the worker count — so the shard
// layout stays a pure function of n.
const (
	maxShards     = 256
	minShardItems = 16
)

// Span is a half-open range of item indices [Lo, Hi) owned by one shard.
type Span struct {
	Index int // shard index, 0-based; reduction and panic order follow it
	Lo    int // first item index in the shard
	Hi    int // one past the last item index
}

// Shards returns the static shard layout for n items: clamp(ceil(n/16),
// 1, 256) spans of near-equal size (the first n%shards spans get one extra
// item). The layout is a pure function of n so it is identical at every
// worker count.
func Shards(n int) []Span {
	if n <= 0 {
		return nil
	}
	count := (n + minShardItems - 1) / minShardItems
	if count > maxShards {
		count = maxShards
	}
	spans := make([]Span, count) //ecolint:allow hotpath — layout computed once per distinct n; Pool.Range serves repeats from lastSpans
	size, rem := n/count, n%count
	lo := 0
	for i := range spans {
		hi := lo + size
		if i < rem {
			hi++
		}
		spans[i] = Span{Index: i, Lo: lo, Hi: hi}
		lo = hi
	}
	return spans
}

// Pool is a fixed set of worker goroutines executing shard callbacks.
// A Pool must be Closed when no longer needed; Close is idempotent.
//
// Range must not be called concurrently from multiple goroutines, and a
// shard callback must not call back into the same Pool (the workers it
// would wait on are occupied running it).
type Pool struct {
	workers int
	tasks   chan task
	wg      sync.WaitGroup
	close   sync.Once

	// Per-call scratch, reused across Range/Items invocations (legal because
	// Range must not be called concurrently): the panic slots and the join
	// WaitGroup. Reuse keeps a control round's fan-out at zero steady-state
	// allocations — at one fan-out per phase per tick, per-call buffers were
	// measurable garbage at 100k servers.
	panicBuf []*shardPanic
	done     sync.WaitGroup

	// Cached shard layout: the control round calls Range with the same n
	// every tick, and Shards is a pure function of n.
	lastN     int
	lastSpans []Span
}

// shards returns the static layout for n, cached across calls.
func (p *Pool) shards(n int) []Span {
	if p == nil {
		return Shards(n)
	}
	if n != p.lastN || p.lastSpans == nil {
		p.lastN, p.lastSpans = n, Shards(n)
	}
	return p.lastSpans
}

// scratch returns n cleared panic slots and the reusable WaitGroup primed
// to n.
func (p *Pool) scratch(n int) []*shardPanic {
	if cap(p.panicBuf) < n {
		p.panicBuf = make([]*shardPanic, n) //ecolint:allow hotpath — grow-once scratch, amortized to zero in steady state
	}
	p.panicBuf = p.panicBuf[:n]
	for i := range p.panicBuf {
		p.panicBuf[i] = nil
	}
	p.done.Add(n)
	return p.panicBuf
}

type task struct {
	span   Span
	fn     func(Span)
	done   *sync.WaitGroup
	panics []*shardPanic // one slot per shard, written at span.Index only
}

type shardPanic struct {
	val   any
	stack []byte
}

// New returns a Pool with the given worker count. workers <= 1 yields an
// inline pool: no goroutines are started and Range runs shards sequentially
// on the caller, in shard-index order — the same schedule a parallel pool's
// reduction reproduces.
func New(workers int) *Pool {
	p := &Pool{workers: workers}
	if workers >= 2 {
		p.tasks = make(chan task)
		p.wg.Add(workers)
		for range workers {
			go p.work() //ecolint:allow goroutine — par is the audited concurrency subsystem
		}
	}
	return p
}

// Workers reports the configured worker count; 0 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// Parallel reports whether Range actually fans out to worker goroutines.
func (p *Pool) Parallel() bool {
	return p != nil && p.workers >= 2
}

// Close shuts the workers down and waits for them to exit. Safe on a nil
// or inline pool, and safe to call more than once.
func (p *Pool) Close() {
	if p == nil || p.tasks == nil {
		return
	}
	p.close.Do(func() {
		close(p.tasks)
		p.wg.Wait()
	})
}

func (p *Pool) work() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.run()
	}
}

func (t task) run() {
	defer func() {
		if r := recover(); r != nil {
			t.panics[t.span.Index] = &shardPanic{val: r, stack: debug.Stack()}
		}
		t.done.Done()
	}()
	t.fn(t.span)
}

// Range executes fn over the static shards of n items and returns once every
// shard has finished. On an inline pool the shards run on the caller in
// index order; on a parallel pool they are distributed across the workers.
// If any shard panics, Range re-panics the panic from the lowest shard index
// after all shards have completed.
//
//ecolint:hotpath
func (p *Pool) Range(n int, fn func(Span)) {
	spans := p.shards(n)
	if !p.Parallel() {
		for _, s := range spans {
			fn(s)
		}
		return
	}
	panics := p.scratch(len(spans))
	for _, s := range spans {
		p.tasks <- task{span: s, fn: fn, done: &p.done, panics: panics}
	}
	p.done.Wait()
	for _, sp := range panics {
		if sp != nil {
			panic(fmt.Sprintf("par: shard panicked: %v\n%s", sp.val, sp.stack)) //ecolint:allow hotpath — cold panic-replay path, never taken in a healthy run
		}
	}
}

// For runs fn for every item index in [0, n), sharded across the pool.
// fn must only touch per-item state (slot i), per the package contract.
func For(p *Pool, n int, fn func(i int)) {
	p.Range(n, func(s Span) {
		for i := s.Lo; i < s.Hi; i++ {
			fn(i)
		}
	})
}

// Items runs fn for each i in [0, n) as one task per item, bypassing the
// static shard rule. It is for coarse-grained work — whole simulations,
// sweep cells — where items dwarf scheduling cost and a 16-item shard floor
// would serialize a 5-item sweep. The per-item contract is the same as
// For's: fn(i) writes only to slot i. Inline pools run in index order; the
// first panic by item index is re-panicked, like Range.
func Items(p *Pool, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	wrap := func(s Span) {
		for i := s.Lo; i < s.Hi; i++ {
			fn(i)
		}
	}
	if !p.Parallel() {
		wrap(Span{Index: 0, Lo: 0, Hi: n})
		return
	}
	panics := p.scratch(n)
	for i := 0; i < n; i++ {
		p.tasks <- task{span: Span{Index: i, Lo: i, Hi: i + 1}, fn: wrap, done: &p.done, panics: panics}
	}
	p.done.Wait()
	for _, sp := range panics {
		if sp != nil {
			panic(fmt.Sprintf("par: item panicked: %v\n%s", sp.val, sp.stack))
		}
	}
}
