package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestChunkBoundsDeterministic(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 127, 128, 1000, 1 << 14, 1 << 20} {
		size, count := ChunkBounds(n)
		size2, count2 := ChunkBounds(n)
		if size != size2 || count != count2 {
			t.Fatalf("ChunkBounds(%d) not deterministic", n)
		}
		if n == 0 {
			if size != 0 || count != 0 {
				t.Fatalf("ChunkBounds(0) = (%d, %d), want (0, 0)", size, count)
			}
			continue
		}
		if size < 1 || count < 1 {
			t.Fatalf("ChunkBounds(%d) = (%d, %d)", n, size, count)
		}
		if count > maxChunks {
			t.Fatalf("ChunkBounds(%d): %d chunks exceeds cap %d", n, count, maxChunks)
		}
		if (count-1)*size >= n || count*size < n {
			t.Fatalf("ChunkBounds(%d) = (%d, %d) does not tile [0, n)", n, size, count)
		}
	}
}

func TestForCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{0, 1, 127, 128, 129, 1000, 1 << 14} {
			p := NewPool(workers)
			hits := make([]int32, n)
			chunks := p.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, h)
				}
			}
			if n > 0 && chunks < 1 {
				t.Fatalf("workers=%d n=%d: reported %d chunks", workers, n, chunks)
			}
			p.Close()
		}
	}
}

func TestChunkCountIndependentOfWorkers(t *testing.T) {
	// The chunking contract: the dispatch pattern of a parallel loop is a
	// function of n only. (One-worker pools run inline, which is the
	// documented exception and does not affect outputs.)
	n := 1 << 13
	_, want := ChunkBounds(n)
	for _, workers := range []int{2, 3, 5, 8} {
		p := NewPool(workers)
		got := p.For(n, func(int) {})
		p.Close()
		if got != want {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, got, want)
		}
	}
}

func TestForAfterCloseRestarts(t *testing.T) {
	p := NewPool(4)
	var c1 int64
	p.For(1024, func(int) { atomic.AddInt64(&c1, 1) })
	p.Close()
	var c2 int64
	p.For(1024, func(int) { atomic.AddInt64(&c2, 1) })
	if c1 != 1024 || c2 != 1024 {
		t.Fatalf("got %d then %d iterations, want 1024 each", c1, c2)
	}
	p.Close()
	p.Close() // idempotent
}

func TestConcurrentForSharedPool(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				p.For(512, func(int) { atomic.AddInt64(&total, 1) })
			}
		}()
	}
	wg.Wait()
	if want := int64(8 * 20 * 512); total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

func TestDefaultPoolShared(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() is not a singleton")
	}
	if w := Default().Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default pool has %d workers, want GOMAXPROCS=%d", w, runtime.GOMAXPROCS(0))
	}
}
