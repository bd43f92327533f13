package main

// layers.go holds the timed direct calls of the traced run: one small loop
// per layer, on inputs taken from the loaded table, each a fixed number of
// iterations repeated five times with the minimum reported. They call the
// layers' public functions from outside, so they measure the program as
// shipped; they are the (t) metrics of bench/README.md.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	feisu "repro"
	"repro/internal/bitmap"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/plan"
	"repro/internal/resultcache"
	"repro/internal/sqlparser"
	"repro/internal/transport"
	"repro/internal/types"
)

const microRepeats = 5

// minTime runs fn microRepeats times and returns the shortest run: the run
// least disturbed by the scheduler or the collector. setup, if not nil, runs
// before each repeat, outside the clock.
func minTime(setup, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < microRepeats; i++ {
		if setup != nil {
			setup()
		}
		t := time.Now()
		fn()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// per divides a duration by a count of units, in nanoseconds.
func per(d time.Duration, units int) float64 { return float64(d) / float64(units) }

// layerBench carries what the micro-loops share.
type layerBench struct {
	e   *env
	ctx context.Context
	out map[string]float64
	// part0 is the first partition file of logs, its footer, and its path.
	path string
	data []byte
	meta *colstore.FileMeta
}

func (lb *layerBench) planOf(sql string) (*plan.PhysicalPlan, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	cfg := lb.e.w.config()
	return plan.PlanWith(stmt, lb.e.sys.Master().Jobs, plan.Options{
		BroadcastThreshold: cfg.BroadcastThreshold,
		ShufflePartitions:  cfg.ShufflePartitions,
		GroupShuffleRows:   -1, // the micro-loops want the plain plan
	})
}

// runLayers runs every micro-loop and returns metric name → value.
func runLayers(e *env, list []*stmt) (map[string]float64, error) {
	lb := &layerBench{e: e, ctx: context.Background(), out: map[string]float64{}}
	meta, err := e.sys.Master().Jobs.Lookup("logs")
	if err != nil {
		return nil, err
	}
	lb.path = meta.Partitions[0].Path
	if lb.data, err = e.sys.Router().ReadFile(lb.ctx, lb.path); err != nil {
		return nil, err
	}
	if lb.meta, err = colstore.ReadMeta(lb.data); err != nil {
		return nil, err
	}
	for _, f := range []func() error{
		func() error { return lb.frontEnd(list) },
		lb.resultCache, lb.clusterCalls, lb.wire, lb.storage, lb.columnFormat,
		lb.scans, lb.aggregation, lb.reducers, lb.smartIndex, lb.bitmaps, lb.columnCache, lb.ingestPath,
	} {
		if err := f(); err != nil {
			return nil, err
		}
	}
	return lb.out, nil
}

// frontEnd times plan.Normalize on the traced statements; parse and plan
// come from the replay's spans.
func (lb *layerBench) frontEnd(list []*stmt) error {
	parsed := make([]*sqlparser.SelectStmt, len(list))
	for i, st := range list {
		var err error
		if parsed[i], err = sqlparser.Parse(st.sql); err != nil {
			return err
		}
	}
	d := minTime(nil, func() {
		for _, s := range parsed {
			plan.Normalize(s)
		}
	})
	lb.out["plan.normalize_us"] = per(d, len(parsed)) / 1e3
	return nil
}

// resultCache times a stand-alone cache on a dashboard GROUP BY: store, exact
// hit, and the miss of a statement with another literal.
func (lb *layerBench) resultCache() error {
	p, err := lb.planOf("SELECT region, COUNT(*) AS n, SUM(clicks) AS total FROM logs WHERE ts >= 0 GROUP BY region")
	if err != nil {
		return err
	}
	other, err := lb.planOf("SELECT region, COUNT(*) AS n, SUM(clicks) AS total FROM logs WHERE ts >= 1 GROUP BY region")
	if err != nil {
		return err
	}
	res := &exec.Result{Columns: []string{"region", "n", "total"}, Types: []types.Type{types.String, types.Int64, types.Int64}}
	for _, r := range regions {
		res.Rows = append(res.Rows, []types.Value{types.NewString(r), types.NewInt(1000), types.NewInt(4000)})
	}
	const n = 2000
	c := resultcache.New(resultcache.Config{CapacityBytes: 32 << 20})
	lb.out["resultcache.store_us"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			c.Store(p, "", res)
		}
	}), n) / 1e3
	lb.out["resultcache.lookup_hit_us"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			c.Lookup(p)
		}
	}), n) / 1e3
	lb.out["resultcache.lookup_miss_us"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			c.Lookup(other)
		}
	}), n) / 1e3
	return nil
}

// clusterCalls times a statement whose every block footer statistics prune
// (dispatch and merge with no scan work at all) and an uncontended admission.
func (lb *layerBench) clusterCalls() error {
	const n = 200
	var qerr error
	d := minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := lb.e.sys.Query(lb.ctx, "SELECT COUNT(*) FROM logs WHERE ts < 0", feisu.WithoutResultCache()); err != nil {
				qerr = err
			}
		}
	})
	if qerr != nil {
		return qerr
	}
	lb.out["cluster.pruned_query_us"] = per(d, n) / 1e3

	adm := cluster.NewAdmissionController(cluster.AdmissionConfig{MaxConcurrent: 64})
	const m = 20000
	d = minTime(nil, func() {
		for i := 0; i < m; i++ {
			release, _, err := adm.Admit(lb.ctx, cluster.PriorityInteractive, 0)
			if err == nil {
				release()
			}
		}
	})
	lb.out["cluster.admission_us"] = per(d, m) / 1e3
	return nil
}

// wire times the gob envelope on a real partial aggregate and a real row
// frame, and an echo handler behind each fabric.
func (lb *layerBench) wire() error {
	groupPlan, err := lb.planOf("SELECT url, COUNT(*) AS n, SUM(dwell) AS total FROM logs GROUP BY url")
	if err != nil {
		return err
	}
	rowPlan, err := lb.planOf("SELECT ts, uid, url, clicks, dwell FROM logs WHERE ts < 4096")
	if err != nil {
		return err
	}
	rd := exec.NewStoreReader(lb.e.sys.Router())
	var payloads []wirePayload
	for _, p := range []*plan.PhysicalPlan{groupPlan, rowPlan} {
		res, err := exec.RunTaskModel(lb.ctx, p.Tasks()[0], rd, nil, nil)
		if err != nil {
			return err
		}
		payloads = append(payloads, wirePayload{Result: res})
	}
	var bodies [][]byte
	var encErr error
	d := minTime(nil, func() {
		bodies = bodies[:0]
		for _, pl := range payloads {
			b, err := transport.EncodePayload(pl)
			if err != nil {
				encErr = err
			}
			bodies = append(bodies, b)
		}
	})
	if encErr != nil {
		return encErr
	}
	kb := 0.0
	for _, b := range bodies {
		kb += float64(len(b)) / 1024
	}
	lb.out["transport.encode_us_per_kb"] = float64(d) / 1e3 / kb
	d = minTime(nil, func() {
		for _, b := range bodies {
			if _, err := transport.DecodePayload(b); err != nil {
				encErr = err
			}
		}
	})
	if encErr != nil {
		return encErr
	}
	lb.out["transport.decode_us_per_kb"] = float64(d) / 1e3 / kb

	echo := func(_ context.Context, _ string, payload any) (any, error) { return payload, nil }
	small, large := wirePayload{Blob: make([]byte, 64)}, wirePayload{Blob: make([]byte, 1<<20)}
	call := func(net transport.Network, pl wirePayload, n int) (time.Duration, error) {
		var cerr error
		d := minTime(nil, func() {
			for i := 0; i < n; i++ {
				if _, err := net.Call(lb.ctx, "a", "b", transport.Read, pl, int64(len(pl.Blob))); err != nil {
					cerr = err
				}
			}
		})
		return d, cerr
	}
	fabric := transport.NewFabric(nil, transport.Options{})
	fabric.Register("b", echo)
	if d, err = call(fabric, small, 20000); err != nil {
		return err
	}
	lb.out["transport.fabric_call_us"] = per(d, 20000) / 1e3

	tcp, err := transport.NewTCP(nil, transport.Options{}, transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer tcp.Close()
	tcp.Register("b", echo)
	if d, err = call(tcp, small, 500); err != nil {
		return err
	}
	lb.out["transport.tcp_rtt_us"] = per(d, 500) / 1e3
	if d, err = call(tcp, large, 20); err != nil {
		return err
	}
	lb.out["transport.tcp_mb_per_s"] = 2 * 20 / d.Seconds() // 1 MiB each way
	return nil
}

// storage times whole-file writes and reads through the router.
func (lb *layerBench) storage() error {
	r := lb.e.sys.Router()
	mb := float64(len(lb.data)) / (1 << 20)
	const n = 8
	var serr error
	d := minTime(nil, func() {
		for i := 0; i < n; i++ {
			if err := r.WriteFile(lb.ctx, "/hdfs/bench-scratch/file", lb.data); err != nil {
				serr = err
			}
		}
	})
	lb.out["storage.write_us_per_mb"] = float64(d) / 1e3 / (n * mb)
	d = minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := r.ReadFile(lb.ctx, "/hdfs/bench-scratch/file"); err != nil {
				serr = err
			}
		}
	})
	lb.out["storage.read_us_per_mb"] = float64(d) / 1e3 / (n * mb)
	if err := r.WriteFile(lb.ctx, "/hdfs/bench-scratch/file", nil); err != nil {
		return err
	}
	return serr
}

// columnFormat times the colstore writer and reader on one block of logs
// (all 24 columns in, 3 of 24 out) and the encoders on its real columns.
func (lb *layerBench) columnFormat() error {
	schema := lb.meta.Schema
	block, err := colstore.ReadBlock(lb.data, lb.meta, 0, nil)
	if err != nil {
		return err
	}
	rows := make([]types.Row, block.NumRows)
	for r := range rows {
		rows[r] = block.Row(r)
	}
	var werr error
	d := minTime(nil, func() {
		w := colstore.NewWriter(schema, blockRows)
		for _, row := range rows {
			if err := w.Append(row); err != nil {
				werr = err
			}
		}
		if _, err := w.Finish(); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	lb.out["colstore.write_ns_per_row"] = per(d, len(rows))

	want := []int{int(cClicks), int(cDwell), int(cURL)}
	const n = 16
	d = minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := colstore.ReadBlock(lb.data, lb.meta, i%len(lb.meta.Blocks), want); err != nil {
				werr = err
			}
		}
	})
	lb.out["colstore.read_block_ns_per_row"] = per(d, n*blockRows)
	d = minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := colstore.ReadMeta(lb.data); err != nil {
				werr = err
			}
		}
	})
	lb.out["colstore.read_meta_us"] = per(d, n) / 1e3
	if werr != nil {
		return werr
	}

	ints, floats, strs := block.Columns[cClicks].Ints, block.Columns[cDwell].Floats, block.Columns[cURL].Strs
	var encInt, encFloat, encStr []byte
	lb.out["encoding.encode_int_ns_per_value"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			encInt = encoding.EncodeInt64s(ints)
		}
	}), n*len(ints))
	lb.out["encoding.encode_str_ns_per_value"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			encStr = encoding.EncodeStrings(strs)
		}
	}), n*len(strs))
	encFloat = encoding.EncodeFloat64s(floats)
	lb.out["encoding.decode_int_ns_per_value"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := encoding.DecodeInt64s(encInt); err != nil {
				werr = err
			}
		}
	}), n*len(ints))
	lb.out["encoding.decode_float_ns_per_value"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := encoding.DecodeFloat64s(encFloat); err != nil {
				werr = err
			}
		}
	}), n*len(floats))
	lb.out["encoding.decode_str_ns_per_value"] = per(minTime(nil, func() {
		for i := 0; i < n; i++ {
			if _, err := encoding.DecodeStrings(encStr); err != nil {
				werr = err
			}
		}
	}), n*len(strs))
	return werr
}

// scans times one leaf task over one partition: without an index (every
// block is read, decoded and run through the predicate kernels) and with a
// warm one (every block is answered from bitmaps).
func (lb *layerBench) scans() error {
	p, err := lb.planOf("SELECT COUNT(*) FROM logs WHERE dwell > 77.5 AND score <= 0.4375")
	if err != nil {
		return err
	}
	task := p.Tasks()[0]
	task.Workers = 1
	rd := exec.NewStoreReader(lb.e.sys.Router())
	var terr error
	run := func(idx exec.IndexSource) func() {
		return func() {
			if _, err := exec.RunTaskModel(lb.ctx, task, rd, idx, nil); err != nil {
				terr = err
			}
		}
	}
	lb.out["exec.scan_noindex_ns_per_row"] = per(minTime(nil, run(nil)), partRows)
	idx := core.New(core.Options{})
	run(idx)() // warm: stores both atoms for every block
	lb.out["exec.scan_indexed_ns_per_row"] = per(minTime(nil, run(idx)), partRows)
	return terr
}

// aggregation times the row-of-Value aggregation path on one partition with
// its columns already decoded, then merging and finalizing its 16 k groups.
func (lb *layerBench) aggregation() error {
	p, err := lb.planOf("SELECT uid, COUNT(*) AS n, SUM(clicks) AS total FROM logs GROUP BY uid")
	if err != nil {
		return err
	}
	tasks := p.Tasks()
	for i := range tasks {
		tasks[i].Workers = 1
	}
	rd := cache.NewReader(exec.NewStoreReader(lb.e.sys.Router()),
		cache.Options{CapacityBytes: 1 << 30, Prefixes: []string{"/"}})
	var terr error
	runTask := func(i int) *exec.TaskResult {
		res, err := exec.RunTaskModel(lb.ctx, tasks[i], rd, nil, nil)
		if err != nil {
			terr = err
		}
		return res
	}
	runTask(0)
	runTask(1) // both partitions' columns are now cached, decoded
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := minTime(nil, func() { runTask(0) })
	runtime.ReadMemStats(&m1)
	lb.out["exec.agg_ns_per_row"] = per(d, partRows)
	lb.out["exec.agg_allocs_per_row"] = float64(m1.Mallocs-m0.Mallocs) / (microRepeats * partRows)

	var acc, next *exec.TaskResult
	d = minTime(func() { acc, next = runTask(0), runTask(1) }, func() { acc = exec.MergeResults(p, acc, next) })
	if terr != nil {
		return terr
	}
	lb.out["exec.merge_ns_per_group"] = per(d, len(next.Groups.M))
	groups := len(acc.Groups.M)
	d = minTime(nil, func() {
		if _, err := exec.Finalize(p, acc); err != nil {
			terr = err
		}
	})
	lb.out["exec.finalize_ns_per_group"] = per(d, groups)
	return terr
}

// reducers times the two shuffle reducers and the routing hash on one
// partition of logs joined with all of users.
func (lb *layerBench) reducers() error {
	aggPlan, err := lb.planOf("SELECT uid, COUNT(*) AS n, SUM(clicks) AS total FROM logs GROUP BY uid")
	if err != nil {
		return err
	}
	rd := exec.NewStoreReader(lb.e.sys.Router())
	var terr error
	var partial *exec.TaskResult
	d := minTime(func() {
		if partial, err = exec.RunTaskModel(lb.ctx, aggPlan.Tasks()[0], rd, nil, nil); err != nil {
			terr = err
		}
	}, func() {
		agg := exec.NewPartitionedAgg(len(aggPlan.Aggs), 64<<20, exec.NewMemSpillStore(), exec.ShuffleBilling{})
		if err := agg.Push(partial.Groups); err != nil {
			terr = err
		}
		if _, err := agg.Flush(); err != nil {
			terr = err
		}
	})
	if terr != nil {
		return terr
	}
	lb.out["exec.partagg_ns_per_group"] = per(d, len(partial.Groups.M))

	if lb.e.chk.users == nil {
		// Only shuffle_tcp loads users; elsewhere the join has no input.
		lb.out["exec.hashjoin_ns_per_row"] = 0
		lb.out["exec.shuffle_route_ns_per_row"] = 0
		return nil
	}
	stmt, err := sqlparser.Parse("SELECT u.segment AS segment, COUNT(*) AS n, SUM(l.clicks) AS total FROM logs l JOIN users u ON l.uid = u.uid WHERE l.ts < 16384 GROUP BY segment")
	if err != nil {
		return err
	}
	joinPlan, err := plan.PlanWith(stmt, lb.e.sys.Master().Jobs, plan.Options{BroadcastThreshold: -1, GroupShuffleRows: -1})
	if err != nil {
		return err
	}
	sh := joinPlan.Shuffle
	if sh == nil || sh.GroupShuffle {
		return fmt.Errorf("layers: the join was not planned as a repartition join")
	}
	build, err := exec.RunTaskModel(lb.ctx, sh.BuildPlan.Tasks()[0], rd, nil, nil)
	if err != nil {
		return err
	}
	probe, err := exec.RunTaskModel(lb.ctx, sh.ProbePlan.Tasks()[0], rd, nil, nil)
	if err != nil {
		return err
	}
	d = minTime(nil, func() {
		j := exec.NewPartitionedHashJoin(joinPlan, exec.NewMemSpillStore(), exec.ShuffleBilling{})
		if err := j.PushBuild(build.Rows); err != nil {
			terr = err
		}
		if err := j.PushProbe(probe.Rows); err != nil {
			terr = err
		}
		if _, err := j.Flush(); err != nil {
			terr = err
		}
	})
	lb.out["exec.hashjoin_ns_per_row"] = per(d, len(probe.Rows)+len(build.Rows))
	sink := 0
	d = minTime(nil, func() {
		for _, row := range probe.Rows {
			sink += exec.ShufflePartition(row, sh.Keys, 4)
		}
	})
	_ = sink
	lb.out["exec.shuffle_route_ns_per_row"] = per(d, len(probe.Rows))
	return terr
}

// smartIndex times a stand-alone SmartIndex on 4 096-row bitmaps of a real
// predicate: store, exact hit, complement-derived hit and miss.
func (lb *layerBench) smartIndex() error {
	col, err := colstore.ReadBlock(lb.data, lb.meta, 0, []int{int(cClicks)})
	if err != nil {
		return err
	}
	vals := col.Columns[cClicks].Ints
	stats := lb.meta.Blocks[0].Stats.Columns[cClicks]
	const n = 1024
	atoms := make([]plan.Atom, n)
	complements := make([]plan.Atom, n)
	absent := make([]plan.Atom, n)
	bms := make([]*bitmap.Bitmap, n)
	for i := range atoms {
		// n distinct literals; the bitmap is the real `clicks > i%32` one.
		atoms[i] = plan.Atom{Table: "logs", Col: "clicks", Op: sqlparser.OpGt, Val: types.NewInt(int64(i))}
		complements[i] = plan.Atom{Table: "logs", Col: "clicks", Op: sqlparser.OpLe, Val: types.NewInt(int64(i))}
		absent[i] = plan.Atom{Table: "logs", Col: "pos", Op: sqlparser.OpGt, Val: types.NewInt(int64(i))}
		bms[i] = bitmap.New(len(vals))
		for r, v := range vals {
			if v > int64(i%32) {
				bms[i].Set(r)
			}
		}
	}
	var idx *core.SmartIndex
	fresh := func() { idx = core.New(core.Options{}) }
	lb.out["core.store_ns"] = per(minTime(fresh, func() {
		for i, a := range atoms {
			idx.Store("block", a, bms[i], stats)
		}
	}), n)
	lookup := func(list []plan.Atom, want bool) func() {
		return func() {
			for _, a := range list {
				if _, ok := idx.Lookup(lb.ctx, "block", a, len(vals)); ok != want {
					err = fmt.Errorf("layers: SmartIndex lookup of %s: hit %v, want %v", a, ok, want)
				}
			}
		}
	}
	lb.out["core.lookup_hit_ns"] = per(minTime(nil, lookup(atoms, true)), n)
	lb.out["core.lookup_derived_ns"] = per(minTime(nil, lookup(complements, true)), n)
	lb.out["core.lookup_miss_ns"] = per(minTime(nil, lookup(absent, false)), n)
	return err
}

// bitmaps times the bitmap kernels on 4 096-bit bitmaps of real predicates.
func (lb *layerBench) bitmaps() error {
	block, err := colstore.ReadBlock(lb.data, lb.meta, 0, []int{int(cClicks), int(cPos)})
	if err != nil {
		return err
	}
	a, b := bitmap.New(blockRows), bitmap.New(blockRows)
	for r := 0; r < blockRows; r++ {
		if block.Columns[cClicks].Ints[r] > 4 {
			a.Set(r)
		}
		if block.Columns[cPos].Ints[r] <= 3 {
			b.Set(r)
		}
	}
	striped := bitmap.Stripe(b)
	const n = 20000
	kbits := float64(n) * blockRows / 1024
	sink := 0
	lb.out["bitmap.and_ns_per_kbit"] = float64(minTime(nil, func() {
		for i := 0; i < n; i++ {
			a.And(b)
		}
	})) / kbits
	lb.out["bitmap.count_ns_per_kbit"] = float64(minTime(nil, func() {
		for i := 0; i < n; i++ {
			sink += b.Count()
		}
	})) / kbits
	lb.out["bitmap.striped_and_ns_per_kbit"] = float64(minTime(nil, func() {
		for i := 0; i < n; i++ {
			striped.AndInto(a)
		}
	})) / kbits
	lb.out["bitmap.compress_ns_per_kbit"] = float64(minTime(nil, func() {
		for i := 0; i < n/10; i++ {
			sink += bitmap.Compress(b).SizeBytes()
		}
	})) / (kbits / 10)
	_ = sink
	return nil
}

// columnCache times the leaf column cache over a store reader: a miss
// (range read, CRC check, decode, insert) and a hit.
func (lb *layerBench) columnCache() error {
	sr := exec.NewStoreReader(lb.e.sys.Router())
	var rd *cache.Reader
	fresh := func() {
		rd = cache.NewReader(sr, cache.Options{CapacityBytes: 1 << 30, Prefixes: []string{"/"}})
	}
	cols := []int{int(cClicks), int(cDwell), int(cURL), int(cScore)}
	var rerr error
	readAll := func() {
		for b := range lb.meta.Blocks {
			for _, c := range cols {
				if _, err := rd.Column(lb.ctx, lb.path, lb.meta, b, c); err != nil {
					rerr = err
				}
			}
		}
	}
	chunks := len(lb.meta.Blocks) * len(cols)
	lb.out["cache.column_miss_us"] = per(minTime(fresh, readAll), chunks) / 1e3
	lb.out["cache.column_hit_us"] = per(minTime(nil, readAll), chunks) / 1e3
	return rerr
}

// ingestPath times the JSON converter on one batch, catalog registration,
// and the invalidation an ingest triggers. It runs last: InvalidatePath
// drops the system's cached footers and column chunks.
func (lb *layerBench) ingestPath() error {
	e := lb.e
	json, _ := newRowGen(e.seed+1).batch(e.schema, batchRows)
	r := e.sys.Router()
	var ierr error
	round := 0
	var conv *ingest.Converter
	d := minTime(func() {
		round++
		src := fmt.Sprintf("/bench-ingest/%d/", round)
		if err := r.WriteFile(lb.ctx, src+"batch.json", json); err != nil {
			ierr = err
		}
		conv = &ingest.Converter{Router: r, Schema: e.schema, SrcPrefix: src, DstPrefix: fmt.Sprintf("/hdfs/bench-ingest/%d", round)}
	}, func() {
		if parts, err := conv.ScanOnce(lb.ctx); err != nil || len(parts) != 1 {
			ierr = fmt.Errorf("layers: converter: %d partitions, %v", len(parts), err)
		}
	})
	if ierr != nil {
		return ierr
	}
	lb.out["ingest.json_ns_per_row"] = per(d, batchRows)

	users := &plan.TableMeta{Name: "bench_scratch", Schema: userSchema()}
	const n = 200
	d = minTime(nil, func() {
		for i := 0; i < n; i++ {
			if err := e.sys.RegisterTable(lb.ctx, users); err != nil {
				ierr = err
			}
		}
	})
	lb.out["feisu.register_table_us"] = per(d, n) / 1e3

	meta, err := e.sys.Master().Jobs.Lookup("logs")
	if err != nil {
		return err
	}
	t := time.Now()
	for _, p := range meta.Partitions {
		e.sys.InvalidatePath("logs", p.Path)
	}
	lb.out["ingest.invalidate_us"] = per(time.Since(t), len(meta.Partitions)) / 1e3
	return ierr
}
