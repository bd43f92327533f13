package feisu

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/cache"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// The eviction-order characterization: each cache is driven with a seeded op
// stream and the keys it evicts at every op are pinned, so a change to how a
// cache keeps its recency order must leave these strings as they are. The
// caches are observed only through their public API: after op i, a fresh
// cache replays ops 0..i and every key is probed in a way that cannot change
// which keys are resident. A key that was resident after op i-1 (or stored by
// op i) and is not after op i was evicted by op i; keys evicted by one op are
// listed sorted.

// evictionLog replays ops 0..i for every i through replay, which returns a
// probe reporting whether a key is resident, and renders "op:key,key" for
// every op that evicted something.
func evictionLog(nOps int, keys []string, stored func(op int) string, replay func(n int) func(key string) bool) string {
	var out []string
	prev := map[string]bool{}
	for i := 0; i < nOps; i++ {
		probe := replay(i + 1)
		if k := stored(i); k != "" {
			prev[k] = true
		}
		cur := map[string]bool{}
		var gone []string
		for _, k := range keys {
			if probe(k) {
				cur[k] = true
			} else if prev[k] {
				gone = append(gone, k)
			}
		}
		if len(gone) > 0 {
			sort.Strings(gone)
			out = append(out, fmt.Sprintf("%d:%s", i, strings.Join(gone, ",")))
		}
		prev = cur
	}
	return strings.Join(out, " ")
}

// skewedKey draws one of n keys, half the time from the first quarter.
func skewedKey(rng *rand.Rand, n int) int {
	if rng.Intn(2) == 0 {
		return rng.Intn(n / 4)
	}
	return rng.Intn(n)
}

// chunkSource serves one fixed column per chunk and fails every read while
// fail is set, so a probe that misses stores nothing.
type chunkSource struct {
	meta *colstore.FileMeta
	fail bool
}

func (f *chunkSource) Meta(ctx context.Context, part plan.PartitionMeta) (*colstore.FileMeta, error) {
	return f.meta, nil
}

func (f *chunkSource) Column(ctx context.Context, path string, meta *colstore.FileMeta, block, col int) (*colstore.Column, error) {
	if f.fail {
		return nil, errors.New("probe miss")
	}
	c := colstore.NewColumn(types.Int64)
	_ = c.Append(types.NewInt(int64(block*10 + col)))
	return c, nil
}

func TestEvictionOrderColumnCache(t *testing.T) {
	const blocks, cols, nOps = 6, 4, 300
	sizes := rand.New(rand.NewSource(7))
	meta := &colstore.FileMeta{Schema: types.MustSchema(types.Field{Name: "a", Type: types.Int64})}
	var keys []string
	for b := 0; b < blocks; b++ {
		bm := colstore.BlockMeta{Ordinal: b}
		for c := 0; c < cols; c++ {
			bm.ColExtents = append(bm.ColExtents, colstore.ColExtent{Len: int64(40 + sizes.Intn(360))})
			keys = append(keys, fmt.Sprintf("b%dc%d", b, c))
		}
		meta.Blocks = append(meta.Blocks, bm)
	}
	// One chunk larger than the whole cache is never admitted.
	meta.Blocks[blocks-1].ColExtents[cols-1].Len = 5000
	rng := rand.New(rand.NewSource(1))
	ops := make([]int, nOps)
	for i := range ops {
		ops[i] = skewedKey(rng, blocks*cols)
	}
	ctx := context.Background()
	got := evictionLog(nOps, keys, func(i int) string { return keys[ops[i]] }, func(n int) func(string) bool {
		src := &chunkSource{meta: meta}
		r := cache.NewReader(src, cache.Options{CapacityBytes: 1200, Prefixes: []string{"/"}})
		for _, k := range ops[:n] {
			if _, err := r.Column(ctx, "/t", meta, k/cols, k%cols); err != nil {
				t.Fatal(err)
			}
		}
		src.fail = true
		return func(key string) bool {
			var b, c int
			fmt.Sscanf(key, "b%dc%d", &b, &c)
			_, err := r.Column(ctx, "/t", meta, b, c)
			return err == nil
		}
	})
	const want = "5:b3c3 7:b2c3 10:b1c2 12:b0c0,b0c1,b5c0 13:b0c2,b1c1 14:b4c2 16:b5c3 17:b1c0 19:b4c3 23:b4c0 26:b0c0,b1c3,b5c0 28:b4c2 29:b2c2 30:b0c3,b1c0,b2c1 31:b3c3 32:b0c0,b0c1 35:b2c3 40:b3c0 41:b0c0,b1c2 42:b0c2,b1c3 45:b2c1 48:b3c1 50:b4c3 52:b2c3 59:b0c3,b1c1,b1c3,b2c2 61:b0c2 62:b3c2 63:b0c1,b1c2 66:b1c0 67:b3c3 68:b0c0,b5c2 70:b5c1 71:b3c2 75:b3c1 80:b0c3,b1c1,b5c0 81:b0c1,b1c0 82:b1c3 84:b0c2,b4c2 89:b5c3 94:b4c0 95:b1c0 97:b3c3 100:b0c3 101:b2c2 105:b0c0 106:b1c0 108:b5c3 110:b0c1,b0c2 111:b4c2 112:b0c0,b0c3 113:b3c0 114:b3c1 118:b4c3 123:b2c1 124:b0c0,b1c0 126:b0c3 127:b0c2,b1c1 128:b3c1 132:b1c3,b2c1,b3c2 142:b0c0 143:b1c2 145:b0c2,b0c3 148:b0c1,b1c0 149:b2c0,b2c2 151:b3c3 153:b1c2,b1c3 157:b2c3 158:b1c0,b1c1 162:b0c0,b4c2 163:b3c0 164:b0c1,b0c3 166:b0c2 168:b4c0 171:b1c0,b3c0 172:b5c3 173:b0c1,b1c2,b2c2 176:b0c0 178:b5c1 179:b0c2 183:b2c0,b4c2 185:b1c0,b2c3 188:b0c0,b0c3,b1c1 191:b4c2 192:b4c0,b5c0 196:b0c3,b1c2 198:b0c0 199:b3c0 202:b1c0,b2c2 203:b3c2 206:b0c1,b1c2 210:b0c0,b2c0 215:b1c3,b3c0,b3c2 216:b0c1,b4c3 217:b5c3 222:b1c0 223:b1c2 225:b2c1 226:b0c3,b1c1 228:b0c0 229:b3c2 231:b0c2 234:b1c0,b1c3,b2c2 235:b0c1,b1c1 236:b3c2 240:b3c1 243:b4c0 249:b5c2 254:b0c1,b0c3 255:b0c0,b1c1,b2c2 256:b0c2,b1c0,b5c1 257:b3c2 259:b5c2 262:b1c2 265:b4c0 266:b0c0,b1c0 267:b0c1 268:b1c1,b2c1 269:b0c2 271:b4c3 273:b1c0,b5c2 275:b0c0 282:b1c3 283:b0c2 284:b4c2 285:b0c3 287:b1c1,b2c0 292:b1c2"
	if got != want {
		t.Fatalf("column-cache evictions changed:\n got %s\nwant %s", got, want)
	}
}

// rcOp is one op on a cache of results or index vectors: a store (of rows
// rows, for the result cache) or a lookup.
type rcOp struct {
	key   int
	store bool
	rows  int
}

func TestEvictionOrderResultCache(t *testing.T) {
	const nOps = 400
	schema := types.MustSchema(types.Field{Name: "url", Type: types.String}, types.Field{Name: "clicks", Type: types.Int64})
	cat := plan.MapCatalog{"logs": &plan.TableMeta{Name: "logs", Schema: schema, Partitions: []plan.PartitionMeta{{Path: "/hdfs/logs/p0", Rows: 100, Bytes: 1000}}}}
	// Equality statements are served only by their own entry; the ranges
	// also serve narrower ranges by re-filtering, which touches the wider
	// entry.
	var keys []string
	var plans []*plan.PhysicalPlan
	for i := 0; i < 16; i++ {
		sql := fmt.Sprintf("SELECT url, clicks FROM logs WHERE clicks = %d", i)
		if i >= 12 {
			sql = fmt.Sprintf("SELECT url, clicks FROM logs WHERE clicks > %d", (i-12)*10)
		}
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Plan(stmt, cat)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, fmt.Sprintf("q%d", i))
		plans = append(plans, p)
	}
	result := func(rows int) *exec.Result {
		res := &exec.Result{Columns: []string{"url", "clicks"}, Types: []types.Type{types.String, types.Int64}, ProcessedRatio: 1}
		for r := 0; r < rows; r++ {
			res.Rows = append(res.Rows, []types.Value{types.NewString(fmt.Sprintf("/u/%d", r)), types.NewInt(int64(40 + r))})
		}
		return res
	}
	rng := rand.New(rand.NewSource(2))
	ops := make([]rcOp, nOps)
	for i := range ops {
		ops[i] = rcOp{key: skewedKey(rng, len(keys)), store: rng.Intn(5) < 2, rows: 1 + rng.Intn(6)}
	}
	var shadow []string
	run := func(n int) *resultcache.Cache {
		c := resultcache.New(resultcache.Config{CapacityBytes: 2500, Now: func() time.Time { return time.Unix(0, 0) }})
		for i, op := range ops[:n] {
			if op.store {
				c.Store(plans[op.key], "", result(op.rows))
				continue
			}
			before := c.Snapshot().ShadowHits
			c.Lookup(plans[op.key])
			if n == nOps && c.Snapshot().ShadowHits > before {
				shadow = append(shadow, fmt.Sprint(i))
			}
		}
		return c
	}
	stored := func(i int) string {
		if ops[i].store {
			return keys[ops[i].key]
		}
		return ""
	}
	got := evictionLog(nOps, keys, stored, func(n int) func(string) bool {
		c := run(n)
		return func(key string) bool {
			var k int
			fmt.Sscanf(key, "q%d", &k)
			_, out := c.Lookup(plans[k])
			return out == resultcache.Hit
		}
	})
	const want = "8:q8 9:q0 10:q2 14:q13 19:q3 28:q12 35:q1 36:q15,q2,q7 40:q12 44:q4 52:q8 57:q1 64:q9 96:q1 100:q0,q8 104:q12 113:q11 118:q1 120:q2 125:q7 141:q0 147:q2 148:q3 150:q11,q9 165:q13,q3 166:q1 177:q9 188:q0,q2 189:q3 190:q15 194:q9 204:q4 207:q14,q7 213:q0 215:q8 216:q1 219:q2 229:q13 237:q6 240:q9 244:q0 247:q12,q14,q15 249:q2 250:q1 252:q13 261:q3 263:q12 285:q6,q9 286:q1 290:q12,q14 300:q8 305:q2 313:q13 318:q6 320:q1,q12 326:q7 329:q2,q4 330:q0 332:q3 348:q5 350:q1 356:q0,q11,q9 363:q3 366:q10,q14 380:q15 384:q0 386:q3 390:q14 391:q9"
	if got != want {
		t.Fatalf("result-cache evictions changed:\n got %s\nwant %s", got, want)
	}
	const wantShadow = "17 23 24 39 48 55 56 90 97 121 142 143 149 154 157 171 176 192 221 224 251 265 273 303 304 308 323 331 334 335 336 339 358 362 382 387"
	if s := strings.Join(shadow, " "); s != wantShadow {
		t.Fatalf("result-cache shadow hits changed:\n got %s\nwant %s", s, wantShadow)
	}
}

func TestEvictionOrderSmartIndex(t *testing.T) {
	const nOps, budget = 400, 1600
	atoms := []plan.Atom{
		{Col: "c", Op: sqlparser.OpGt, Val: types.NewInt(0)},
		{Col: "c", Op: sqlparser.OpGt, Val: types.NewInt(1)},
		{Col: "c", Op: sqlparser.OpGt, Val: types.NewInt(2)},
		{Col: "c", Op: sqlparser.OpGt, Val: types.NewInt(3)},
		// The complements of the first two: a lookup that misses its own
		// entry is answered from these, which touches them.
		{Col: "c", Op: sqlparser.OpLe, Val: types.NewInt(0)},
		{Col: "c", Op: sqlparser.OpLe, Val: types.NewInt(1)},
	}
	// Each block has its own row count, so entries differ in size.
	blockRows := []int{64, 256, 1024, 2048}
	blockID := func(b int) string { return fmt.Sprintf("/t/p#1#%d", b) }
	var keys []string
	for b := range blockRows {
		for a := range atoms {
			keys = append(keys, fmt.Sprintf("%d/%d", b, a))
		}
	}
	// Pinned: every block's atom 1, and all of block 3.
	pinned := func(k int) bool { return k%len(atoms) == 1 || k/len(atoms) == 3 }
	rng := rand.New(rand.NewSource(3))
	ops := make([]rcOp, nOps)
	for i := range ops {
		ops[i] = rcOp{key: skewedKey(rng, len(keys)), store: rng.Intn(2) == 0}
	}
	st := colstore.Stats{Min: types.NewInt(-100), Max: types.NewInt(100)}
	ctx := context.Background()
	now := time.Unix(0, 0)
	// lookup reports whether the key's own entry answered.
	lookup := func(s *core.SmartIndex, k int) bool {
		before := s.Stats().Hits
		s.Lookup(ctx, blockID(k/len(atoms)), atoms[k%len(atoms)], blockRows[k/len(atoms)])
		return s.Stats().Hits > before
	}
	stored := func(i int) string {
		if ops[i].store {
			return keys[ops[i].key]
		}
		return ""
	}
	var resident []map[string]bool // the probes of each replay, for the invariants below
	got := evictionLog(nOps, keys, stored, func(n int) func(string) bool {
		s := core.New(core.Options{MemoryBudget: budget, Now: func() time.Time { return now }})
		s.PinAtom(atoms[1].Key())
		s.Pin(blockID(3))
		for _, op := range ops[:n] {
			if !op.store {
				lookup(s, op.key)
				continue
			}
			rows := blockRows[op.key/len(atoms)]
			v := bitmap.New(rows)
			for r := op.key % 3; r < rows; r += 3 {
				v.Set(r)
			}
			s.Store(blockID(op.key/len(atoms)), atoms[op.key%len(atoms)], v, st)
		}
		res := map[string]bool{}
		resident = append(resident, res)
		return func(key string) bool {
			var b, a int
			fmt.Sscanf(key, "%d/%d", &b, &a)
			res[key] = lookup(s, b*len(atoms)+a)
			return res[key]
		}
	})
	// The walk evicts a pinned entry only once no unpinned one is left, and
	// never the entry being stored.
	for i, op := range ops {
		if !op.store {
			continue
		}
		res := resident[i]
		if !res[keys[op.key]] {
			t.Fatalf("op %d: the stored entry %s was evicted", i, keys[op.key])
		}
		evictedPinned := false
		for k, key := range keys {
			if i > 0 && pinned(k) && resident[i-1][key] && !res[key] {
				evictedPinned = true
			}
		}
		for k, key := range keys {
			if evictedPinned && !pinned(k) && k != op.key && res[key] {
				t.Fatalf("op %d: a pinned entry was evicted while unpinned %s stays", i, key)
			}
		}
	}
	const want = "16:0/3 17:2/5 18:0/2 19:0/5 25:1/0 27:1/3 31:2/5 32:0/0,0/2 35:0/4 36:0/5 38:1/0,1/3 41:0/0 46:0/3,3/0 51:0/2 52:0/0 54:1/5,3/3 64:2/0 65:1/2 67:0/5,1/1 70:3/5 71:2/0 74:2/2 77:0/4 78:0/0 79:2/5 84:1/0 89:0/2,0/4,0/5 93:3/2 100:0/4,1/2 104:0/3 105:2/2 115:0/4 116:0/0 117:0/3 119:1/2 123:0/0 128:1/0 131:0/3 140:1/4 141:0/2 142:0/5 143:0/3,0/4 145:2/4 148:0/3 149:0/0 157:0/5 159:1/4 160:0/2 165:1/3 169:0/0,0/3,0/4 170:3/3 173:0/2 176:0/0,2/4 179:3/1 184:0/4 193:2/2 195:0/5 197:0/4,1/2 201:2/5 210:0/0 215:0/3,0/5 216:2/4 218:0/2,0/4,3/5 227:0/2,0/5 229:1/2 230:1/4 235:0/3 236:2/4 238:0/0 246:0/2,0/3,3/3 250:2/1,2/5 254:0/3 255:0/2,1/1 257:2/3 264:1/5 267:0/4,1/2,3/4 281:0/5 282:0/3 287:1/5 288:0/0 294:1/2 295:0/0 297:0/4 300:0/5 305:0/0,3/3 314:2/5 319:1/2 320:0/0 323:1/2,1/3 324:0/4 325:2/2 330:1/4,2/0 332:3/2 340:2/4 345:0/5,1/2 356:0/2 359:0/0 361:0/4,1/1,3/2 367:0/3 368:2/0 371:0/0,0/2 373:2/4 375:0/3,0/5 379:2/2 382:0/2,3/1 389:2/3 395:0/0 396:3/0 398:0/2 399:2/5"
	if got != want {
		t.Fatalf("SmartIndex evictions changed:\n got %s\nwant %s", got, want)
	}
}
