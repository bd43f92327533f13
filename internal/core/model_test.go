package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// modelBlock is one data block of the reference: the column values every
// stored bitmap is evaluated from, so that any hit — exact, complement or
// negation — can be checked against the data itself. The
// reference never evicts: it can always answer.
type modelBlock struct {
	id    string
	rows  int
	vals  [][]int64 // [col][row]
	nulls [][]bool  // [col][row]
}

const modelCols = 3

// regen rewrites the block with fresh values. Column 2 carries NULLs.
func (b *modelBlock) regen(rng *rand.Rand, rows int) {
	b.rows = rows
	b.vals = make([][]int64, modelCols)
	b.nulls = make([][]bool, modelCols)
	for c := range b.vals {
		b.vals[c] = make([]int64, rows)
		b.nulls[c] = make([]bool, rows)
		for r := 0; r < rows; r++ {
			b.vals[c][r] = int64(rng.Intn(5))
			b.nulls[c][r] = c == 2 && rng.Intn(8) == 0
		}
	}
	// Column 1 is constant in some blocks, so that some vectors are
	// all-true or all-false.
	if rng.Intn(2) == 0 {
		for r := range b.vals[1] {
			b.vals[1][r] = 2
		}
	}
}

func (b *modelBlock) stats(col int) colstore.Stats {
	st := colstore.Stats{}
	for r, v := range b.vals[col] {
		if b.nulls[col][r] {
			st.NullCount++
			continue
		}
		if st.Min.IsNull() || v < st.Min.I {
			st.Min = types.NewInt(v)
		}
		if st.Max.IsNull() || v > st.Max.I {
			st.Max = types.NewInt(v)
		}
	}
	return st
}

// eval is the truth: NULL rows satisfy neither an atom nor its negation.
func (b *modelBlock) eval(col int, a plan.Atom) *bitmap.Bitmap {
	out := bitmap.New(b.rows)
	for r, v := range b.vals[col] {
		if b.nulls[col][r] {
			continue
		}
		var ok bool
		switch a.Op {
		case sqlparser.OpEq:
			ok = v == a.Val.I
		case sqlparser.OpNe:
			ok = v != a.Val.I
		case sqlparser.OpLt:
			ok = v < a.Val.I
		case sqlparser.OpLe:
			ok = v <= a.Val.I
		case sqlparser.OpGt:
			ok = v > a.Val.I
		case sqlparser.OpGe:
			ok = v >= a.Val.I
		}
		if ok != a.Negated {
			out.Set(r)
		}
	}
	return out
}

// key is the identity of an entry as pins and Invalidate see it.
func key(blockID string, a plan.Atom) string { return blockID + "|" + a.Key() }

// flat lists the two-level index as one map from "<block id>|<atom key>",
// checking on the way that every entry is filed under its own block and key
// and that no block is kept empty.
func flat(t *testing.T, s *SmartIndex) map[string]*entry {
	out := make(map[string]*entry)
	for id, b := range s.blocks {
		if b.id != id || len(b.byKey) == 0 {
			t.Fatalf("block %q filed under %q with %d entries", b.id, id, len(b.byKey))
		}
		for k, e := range b.byKey {
			if e.key != k || e.blk != b {
				t.Fatalf("block %s: entry %q filed under %q", id, e.key, k)
			}
			out[id+"|"+k] = e
		}
	}
	return out
}

// TestModelRandomOps drives 10 000 seeded random operations against the
// index and the never-evicting reference. After every step the budget
// accounting, the LRU list, every answer and the conservation identity
//
//	Stored = resident + replaced + EvictedLRU + EvictedTTL + invalidated + reshaped
//
// must hold, where replaced, invalidated and reshaped (shape-mismatch drops)
// are tallied here from which keys left during which kind of step.
func TestModelRandomOps(t *testing.T) {
	for _, opt := range []Options{
		{MemoryBudget: 4000},
		{MemoryBudget: 4000, Compress: true},
		{DisableDerivation: true},
	} {
		opt := opt
		t.Run(fmt.Sprintf("budget=%d,compress=%v,noderive=%v", opt.MemoryBudget, opt.Compress, opt.DisableDerivation), func(t *testing.T) {
			runModel(t, opt, 1)
		})
	}
}

func runModel(t *testing.T, opt Options, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := newClock()
	opt.Now = clk.now
	s := New(opt)

	// Two partitions of three blocks; block ids are path#ordinal as in the
	// executor, and one path is a string prefix of the other. /t/p10#2 is
	// large enough that a dense entry exceeds the budget.
	paths := []string{"/t/p1", "/t/p10"}
	var blocks []*modelBlock
	for _, path := range paths {
		for o := 0; o < 3; o++ {
			b := &modelBlock{id: fmt.Sprintf("%s#%d", path, o)}
			b.regen(rng, 100+rng.Intn(100))
			blocks = append(blocks, b)
		}
	}
	blocks[5].regen(rng, 32<<10)
	nextRows := 300 // strictly increasing: a regenerated block never repeats a shape

	ops := []sqlparser.BinaryOp{sqlparser.OpEq, sqlparser.OpNe, sqlparser.OpLt, sqlparser.OpLe, sqlparser.OpGt, sqlparser.OpGe}
	randAtom := func() (int, plan.Atom) {
		col := rng.Intn(modelCols)
		return col, plan.Atom{Col: fmt.Sprintf("c%d", col), Op: ops[rng.Intn(len(ops))], Val: types.NewInt(int64(1 + rng.Intn(3)))}
	}

	var replaced, invalidated, reshaped int64
	type before struct {
		expired bool
		rows    int
	}
	for step := 0; step < 10000; step++ {
		resident := make(map[string]before)
		for k, e := range flat(t, s) {
			resident[k] = before{expired: s.expired(e, clk.now()), rows: e.numRows}
		}
		st0 := s.Stats()
		// left lists the keys resident before the step and gone after it.
		left := func() []string {
			var out []string
			now := flat(t, s)
			for k := range resident {
				if _, ok := now[k]; !ok {
					out = append(out, k)
				}
			}
			return out
		}
		what := ""
		mayDrop := true // Pin, PinAtom, UnpinAtom and the clock never remove an entry

		switch r := rng.Intn(100); {
		case r < 40: // Store the true evaluation of a random atom
			b := blocks[rng.Intn(len(blocks))]
			col, a := randAtom()
			k := key(b.id, a)
			what = "Store " + k
			s.Store(b.id, a, b.eval(col, a), b.stats(col))
			st := s.Stats()
			var evicted int64
			for _, g := range left() {
				if g != k {
					evicted++
				}
			}
			if _, was := resident[k]; was {
				replaced++ // whether or not the new entry is admitted
			}
			if _, in := flat(t, s)[k]; in != (st.Stored > st0.Stored) {
				t.Fatalf("step %d %s: Stored moved by %d but resident=%v", step, what, st.Stored-st0.Stored, in)
			}
			if evicted != st.EvictedLRU-st0.EvictedLRU {
				t.Fatalf("step %d %s: %d entries left, EvictedLRU moved by %d", step, what, evicted, st.EvictedLRU-st0.EvictedLRU)
			}
			if st.EvictedTTL != st0.EvictedTTL {
				t.Fatalf("step %d %s: Store expired entries", step, what)
			}

		case r < 80: // Lookup, sometimes negated
			b := blocks[rng.Intn(len(blocks))]
			col, a := randAtom()
			a.Negated = rng.Intn(4) == 0
			what = fmt.Sprintf("Lookup %s %s", b.id, a)
			got, ok := s.Lookup(ctxb, b.id, a, b.rows)
			if ok && !got.Equal(b.eval(col, a)) {
				t.Fatalf("step %d %s: answer differs from the data", step, what)
			}
			if ok && a.Negated && b.stats(col).NullCount > 0 {
				t.Fatalf("step %d %s: negation answered over a NULL-bearing column", step, what)
			}
			// An entry may leave during a lookup only by TTL or because its
			// shape no longer matches the block.
			var ttl int64
			for _, k := range left() {
				switch was := resident[k]; {
				case was.expired:
					ttl++
				case was.rows != b.rows:
					reshaped++
				default:
					t.Fatalf("step %d %s: live entry %s dropped", step, what, k)
				}
			}
			if st := s.Stats(); st.EvictedTTL-st0.EvictedTTL != ttl || st.EvictedLRU != st0.EvictedLRU {
				t.Fatalf("step %d %s: %d expired entries left, counters moved %+v -> %+v", step, what, ttl, st0, st)
			}

		case r < 84: // the block is rewritten in a new shape, nobody invalidates
			b := blocks[rng.Intn(len(blocks)-1)] // not the oversize one
			what, mayDrop = "reshape "+b.id, false
			nextRows++
			b.regen(rng, nextRows)

		case r < 85: // one partition, or both by the bare path prefix, rewritten and invalidated (same shape allowed)
			prefix := []string{"/t/p1#", "/t/p10#", "/t/p1"}[rng.Intn(3)]
			what = "Invalidate " + prefix
			for _, b := range blocks {
				if strings.HasPrefix(b.id, prefix) {
					b.regen(rng, b.rows)
				}
			}
			n := s.Invalidate(prefix)
			gone := left()
			for _, k := range gone {
				if !strings.HasPrefix(k, prefix) {
					t.Fatalf("step %d %s: dropped %s", step, what, k)
				}
			}
			for k := range flat(t, s) {
				if strings.HasPrefix(k, prefix) {
					t.Fatalf("step %d %s: kept %s", step, what, k)
				}
			}
			if n != len(gone) {
				t.Fatalf("step %d %s: returned %d, %d entries left", step, what, n, len(gone))
			}
			invalidated += int64(n)

		case r < 88:
			what = "Sweep"
			n := s.Sweep()
			gone := left()
			for _, k := range gone {
				if !resident[k].expired {
					t.Fatalf("step %d Sweep: dropped live entry %s", step, k)
				}
			}
			for k, e := range flat(t, s) {
				if s.expired(e, clk.now()) {
					t.Fatalf("step %d Sweep: kept expired entry %s", step, k)
				}
			}
			if st := s.Stats(); n != len(gone) || st.EvictedTTL-st0.EvictedTTL != int64(n) {
				t.Fatalf("step %d Sweep: returned %d, %d left, EvictedTTL moved by %d", step, n, len(gone), st.EvictedTTL-st0.EvictedTTL)
			}

		case r < 89: // rare: prefix pins only accumulate — a block, one column of a block, a partition
			b := blocks[rng.Intn(len(blocks))]
			prefix := []string{b.id + "|", b.id + "|c1 ", b.id[:strings.Index(b.id, "#")+1]}[rng.Intn(3)]
			what, mayDrop = "Pin "+prefix, false
			s.Pin(prefix)
		case r < 93:
			_, a := randAtom()
			what, mayDrop = "PinAtom "+a.Key(), false
			s.PinAtom(a.Key())
		case r < 96:
			_, a := randAtom()
			what, mayDrop = "UnpinAtom "+a.Key(), false
			s.UnpinAtom(a.Key())
		default:
			d := time.Duration(rng.Intn(60)) * time.Hour
			what, mayDrop = "advance "+d.String(), false
			clk.advance(d)
		}

		if !mayDrop && len(left()) != 0 {
			t.Fatalf("step %d %s: entries left: %v", step, what, left())
		}
		var sum int64
		now := flat(t, s)
		linked := map[*entry]bool{}
		for e := s.lru.Oldest(); e != nil; e = s.lru.Newer(e) {
			linked[e] = true
		}
		for k, e := range now {
			sum += e.Size()
			if !linked[e] {
				t.Fatalf("step %d %s: entry %s is not in the recency list", step, what, k)
			}
			want := s.pinAtoms[k[strings.Index(k, "|")+1:]]
			for _, p := range s.pins {
				want = want || strings.HasPrefix(k, p)
			}
			if e.pinned != want {
				t.Fatalf("step %d %s: entry %s pinned=%v, preferences say %v", step, what, k, e.pinned, want)
			}
		}
		st := s.Stats()
		if st.Bytes != sum || s.lru.Bytes() != sum {
			t.Fatalf("step %d %s: Bytes = %d, entries sum to %d", step, what, st.Bytes, sum)
		}
		if opt.MemoryBudget > 0 && sum > opt.MemoryBudget {
			t.Fatalf("step %d %s: %d resident bytes over the %d budget", step, what, sum, opt.MemoryBudget)
		}
		if s.lru.Len() != len(now) || st.Entries != int64(len(now)) {
			t.Fatalf("step %d %s: list holds %d, blocks %d, Stats.Entries %d", step, what, s.lru.Len(), len(now), st.Entries)
		}
		if got := st.Entries + replaced + st.EvictedLRU + st.EvictedTTL + invalidated + reshaped; st.Stored != got {
			t.Fatalf("step %d %s: Stored = %d, but resident %d + replaced %d + LRU %d + TTL %d + invalidated %d + reshaped %d = %d",
				step, what, st.Stored, st.Entries, replaced, st.EvictedLRU, st.EvictedTTL, invalidated, reshaped, got)
		}
	}

	st := s.Stats()
	t.Logf("%+v replaced=%d invalidated=%d reshaped=%d", st, replaced, invalidated, reshaped)
	if st.Hits == 0 || st.DerivedHits == 0 || st.Misses == 0 || st.EvictedTTL == 0 || replaced == 0 || invalidated == 0 || reshaped == 0 {
		t.Fatalf("the run never exercised some path: %+v replaced=%d invalidated=%d reshaped=%d", st, replaced, invalidated, reshaped)
	}
	if opt.MemoryBudget > 0 && st.EvictedLRU == 0 {
		t.Fatalf("a budgeted run never evicted: %+v", st)
	}
}
