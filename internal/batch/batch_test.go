package batch

import (
	"math/rand"
	"testing"

	"monge/internal/core"
	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/smawk"
)

// Answers from one driver's retained machines must be index-exact with
// both the sequential oracle and a fresh-machine-per-query run, across
// mixed shapes (so the driver juggles several shape classes at once) and
// tie-heavy integer arrays.
func TestRowMinimaBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct{ m, n int }{
		{16, 16}, {1, 33}, {64, 5}, {16, 16}, {7, 7}, {64, 5},
	}
	var as []marray.Matrix
	for _, sh := range shapes {
		as = append(as, marray.RandomMonge(rng, sh.m, sh.n))
		as = append(as, marray.RandomMongeInt(rng, sh.m, sh.n, 3))
	}
	d := New(pram.CRCW)
	defer d.Close()
	got := make([][]int, len(as))
	for i, a := range as {
		got[i] = d.RowMinima(a)
	}
	for i, a := range as {
		want := smawk.RowMinima(a)
		fresh := core.RowMinima(pram.New(pram.CRCW, a.Cols()), a)
		for r := range want {
			if got[i][r] != want[r] {
				t.Fatalf("query %d row %d: batch %d, sequential %d", i, r, got[i][r], want[r])
			}
			if got[i][r] != fresh[r] {
				t.Fatalf("query %d row %d: batch %d, fresh machine %d", i, r, got[i][r], fresh[r])
			}
		}
	}
}

func TestTubeMaximaBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ p, q, r int }{{6, 6, 6}, {1, 9, 3}, {6, 6, 6}, {4, 2, 8}}
	var cs []marray.Composite
	for _, sh := range shapes {
		cs = append(cs, marray.RandomComposite(rng, sh.p, sh.q, sh.r))
	}
	d := New(pram.CREW)
	defer d.Close()
	argJ := make([][][]int, len(cs))
	vals := make([][][]float64, len(cs))
	for i, c := range cs {
		argJ[i], vals[i] = d.TubeMaxima(c)
	}
	for i, c := range cs {
		wantJ, wantV := smawk.TubeMaxima(c)
		for x := range wantJ {
			for k := range wantJ[x] {
				if argJ[i][x][k] != wantJ[x][k] {
					t.Fatalf("query %d tube (%d,%d): batch j=%d, sequential j=%d",
						i, x, k, argJ[i][x][k], wantJ[x][k])
				}
				if vals[i][x][k] != wantV[x][k] {
					t.Fatalf("query %d tube (%d,%d): batch val %v, sequential %v",
						i, x, k, vals[i][x][k], wantV[x][k])
				}
			}
		}
	}
}

// Shape classes must share machines: two same-shape queries hit one
// machine, a different shape gets its own.
func TestDriverSharesMachinesByShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := New(pram.CRCW)
	defer d.Close()
	d.RowMinima(marray.RandomMonge(rng, 8, 16))
	m1 := d.Machine(16)
	if m1 == nil {
		t.Fatal("no machine retained for 16 cols")
	}
	t1 := m1.Time()
	d.RowMinima(marray.RandomMonge(rng, 8, 16))
	if d.Machine(16) != m1 {
		t.Fatal("same-shape query built a second machine")
	}
	if m1.Time() <= t1 {
		t.Fatal("second query charged no time on the shared machine")
	}
	d.RowMinima(marray.RandomMonge(rng, 8, 32))
	if d.Machine(32) == nil || d.Machine(32) == m1 {
		t.Fatal("different shape did not get its own machine")
	}
}

func TestDriverCloseAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := marray.RandomMonge(rng, 12, 12)
	d := New(pram.CRCW)
	before := d.RowMinima(a)
	d.Close()
	if d.Machine(12) != nil {
		t.Fatal("Close retained a machine")
	}
	after := d.RowMinima(a)
	defer d.Close()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d: %d before Close, %d after", i, before[i], after[i])
		}
	}
}

// TestDriverCloseIdempotent pins the Close contract the serving layer
// relies on: repeated Closes are no-ops, not panics or double-releases,
// and the driver stays reusable between them.
func TestDriverCloseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := New(pram.CRCW)
	d.RowMinima(marray.RandomMonge(rng, 8, 8))
	d.Close()
	d.Close() // historically a second Reset pass over stale machines
	if d.Machine(8) != nil {
		t.Fatal("machine survived Close")
	}
	d.RowMinima(marray.RandomMonge(rng, 8, 8))
	d.Close()
	d.Close()
}

// TestDriverNormalizesProcs is the machineFor clamp regression: a
// degenerate query shape (procs < 1) must land in the same shape class
// the accessor and stats report, not a silently different key.
func TestDriverNormalizesProcs(t *testing.T) {
	if NormProcs(0) != 1 || NormProcs(-5) != 1 || NormProcs(3) != 3 {
		t.Fatalf("NormProcs: got (%d,%d,%d), want (1,1,3)",
			NormProcs(0), NormProcs(-5), NormProcs(3))
	}
	d := New(pram.CRCW)
	defer d.Close()
	m := d.machineFor(0)
	if m == nil || m.Procs() != 1 {
		t.Fatalf("machineFor(0) built a machine with %d procs, want 1", m.Procs())
	}
	if d.Machine(0) != m || d.Machine(1) != m || d.Machine(-3) != m {
		t.Fatal("accessor and machineFor disagree on the clamped shape class")
	}
	if got := len(d.machines); got != 1 {
		t.Fatalf("%d shape classes retained for clamped counts, want 1", got)
	}
	if st := d.QueryStats(0, func() {}); st.Procs != 1 {
		t.Fatalf("QueryStats reports procs=%d for a clamped shape, want 1", st.Procs)
	}
}

// TestQueryStats pins the per-query cost API: the diff matches a fresh
// machine running the same query, consecutive queries don't bleed into
// each other, and queries on other shape classes are excluded.
func TestQueryStats(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := marray.RandomMonge(rng, 24, 24)
	b := marray.RandomMonge(rng, 24, 24)
	other := marray.RandomMonge(rng, 24, 48)

	fresh := pram.New(pram.CRCW, a.Cols())
	core.RowMinima(fresh, a)

	d := New(pram.CRCW)
	defer d.Close()
	var idx []int
	st := d.QueryStats(a.Cols(), func() { idx = d.RowMinima(a) })
	want := smawk.RowMinima(a)
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("row %d: stats-wrapped query %d, sequential %d", i, idx[i], want[i])
		}
	}
	if st.Procs != a.Cols() {
		t.Errorf("Procs=%d, want %d", st.Procs, a.Cols())
	}
	if st.Time != fresh.Time() || st.Work != fresh.Work() || st.Steps != fresh.Steps() {
		t.Errorf("first query stats %+v, fresh machine time=%d steps=%d work=%d",
			st, fresh.Time(), fresh.Steps(), fresh.Work())
	}
	// The second same-shape query diffs from the warm counters, and a
	// different-shape query inside the window is not charged to it.
	st2 := d.QueryStats(a.Cols(), func() {
		d.RowMinima(b)
		d.RowMinima(other)
	})
	if st2.Time <= 0 || st2.Work <= 0 {
		t.Errorf("warm query charged time=%d work=%d, want positive", st2.Time, st2.Work)
	}
	otherTime := d.Machine(other.Cols()).Time()
	if otherTime <= 0 {
		t.Error("other-shape query charged no time to its own machine")
	}
	if st2.Time >= st.Time+otherTime {
		t.Errorf("stats window absorbed the other shape class: %d >= %d+%d",
			st2.Time, st.Time, otherTime)
	}
}

// TestDriverStaircase pins the staircase entry point against the
// sequential algorithm.
func TestDriverStaircase(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := New(pram.CRCW)
	defer d.Close()
	for i := 0; i < 4; i++ {
		a := marray.RandomStaircaseMonge(rng, 14, 23)
		got := d.StaircaseRowMinima(a)
		want := smawk.StaircaseRowMinima(a)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("iter %d row %d: driver %d, sequential %d", i, r, got[r], want[r])
			}
		}
	}
}

// TestDriverMachineWorkers checks that SetMachineWorkers reaches both
// retained and future machines and leaves answers unchanged.
func TestDriverMachineWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := marray.RandomMonge(rng, 16, 16)
	b := marray.RandomMonge(rng, 16, 32)
	d := New(pram.CRCW)
	defer d.Close()
	seq := smawk.RowMinima(a)
	got := d.RowMinima(a) // retained machine on the shared pool
	d.SetMachineWorkers(1)
	got2 := d.RowMinima(a) // retained machine, rewired
	gotB := d.RowMinima(b) // future machine, created private
	seqB := smawk.RowMinima(b)
	for i := range seq {
		if got[i] != seq[i] || got2[i] != seq[i] {
			t.Fatalf("row %d: shared %d, private %d, sequential %d", i, got[i], got2[i], seq[i])
		}
	}
	for i := range seqB {
		if gotB[i] != seqB[i] {
			t.Fatalf("row %d: private-pool machine %d, sequential %d", i, gotB[i], seqB[i])
		}
	}
}
