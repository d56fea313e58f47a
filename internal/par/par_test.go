package par

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

func TestShardsStatic(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 255, 256, 257, 1000, 100_000} {
		spans := Shards(n)
		if n == 0 {
			if spans != nil {
				t.Fatalf("Shards(0) = %v, want nil", spans)
			}
			continue
		}
		want := (n + minShardItems - 1) / minShardItems
		if want > maxShards {
			want = maxShards
		}
		if len(spans) != want {
			t.Fatalf("Shards(%d): %d spans, want %d", n, len(spans), want)
		}
		// Spans must tile [0, n) exactly, in order, with sizes differing by
		// at most one (static even split).
		lo, minSz, maxSz := 0, n, 0
		for i, s := range spans {
			if s.Index != i || s.Lo != lo || s.Hi <= s.Lo {
				t.Fatalf("Shards(%d)[%d] = %+v (cursor %d)", n, i, s, lo)
			}
			if sz := s.Hi - s.Lo; sz < minSz {
				minSz = sz
			} else if sz > maxSz {
				maxSz = sz
			}
			lo = s.Hi
		}
		if lo != n {
			t.Fatalf("Shards(%d) covers [0,%d)", n, lo)
		}
		if maxSz > minSz+1 {
			t.Fatalf("Shards(%d): uneven split min=%d max=%d", n, minSz, maxSz)
		}
	}
}

// TestRangeCoversEveryIndex checks that every item is visited exactly once
// at several worker counts, including the nil pool.
func TestRangeCoversEveryIndex(t *testing.T) {
	const n = 10_000
	for _, workers := range []int{0, 1, 2, 3, 8} {
		var p *Pool
		if workers > 0 {
			p = New(workers)
		}
		visits := make([]int32, n)
		For(p, n, func(i int) { atomic.AddInt32(&visits[i], 1) })
		p.Close()
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestForBitIdentical is the core contract: For over per-item rng streams,
// each item writing its own slot, plus a sequential fold gives
// bit-identical floats at every worker count.
func TestForBitIdentical(t *testing.T) {
	const n = 5000
	compute := func(workers int) (float64, []float64) {
		var p *Pool
		if workers > 0 {
			p = New(workers)
			defer p.Close()
		}
		master := rng.New(42)
		out := make([]float64, n)
		For(p, n, func(i int) {
			src := master.SplitIndex("item", i)
			out[i] = src.Float64()*1e-9 + src.NormFloat64()
		})
		sum := 0.0
		for _, v := range out {
			sum += v // ordered reduction: index order, like the sequential loop
		}
		return sum, out
	}
	refSum, refOut := compute(0)
	for _, workers := range []int{1, 2, 3, 8} {
		sum, out := compute(workers)
		if sum != refSum { //ecolint:allow float-eq — bit-identity is the property under test
			t.Fatalf("workers=%d: sum %x != sequential %x", workers, sum, refSum)
		}
		for i := range out {
			if out[i] != refOut[i] { //ecolint:allow float-eq — bit-identity is the property under test
				t.Fatalf("workers=%d: out[%d] = %x != %x", workers, i, out[i], refOut[i])
			}
		}
	}
}

func TestRangePanicPropagatesLowestShard(t *testing.T) {
	p := New(4)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom shard") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
		// Every panicking shard finished before Range re-panicked; the one
		// reported must be the lowest shard index (what sequential hits first).
		if !strings.Contains(msg, "boom shard 3") {
			t.Fatalf("want lowest panicking shard 3, got: %.120s", msg)
		}
	}()
	p.Range(64, func(s Span) {
		if s.Index >= 3 {
			panic("boom shard " + string(rune('0'+s.Index%10)))
		}
	})
}

func TestInlinePoolRunsInOrder(t *testing.T) {
	for _, workers := range []int{0, 1} {
		p := New(workers)
		if p.Parallel() {
			t.Fatalf("New(%d).Parallel() = true", workers)
		}
		var order []int
		p.Range(300, func(s Span) { order = append(order, s.Index) })
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: shard %d ran at position %d", workers, got, i)
			}
		}
		p.Close() // must be a no-op
	}
	var nilPool *Pool
	if nilPool.Workers() != 0 || nilPool.Parallel() {
		t.Fatal("nil pool must report 0 sequential workers")
	}
	nilPool.Close()
}

func TestCloseIdempotent(t *testing.T) {
	p := New(3)
	For(p, 100, func(int) {})
	p.Close()
	p.Close()
}
