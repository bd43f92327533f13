package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/transport"
)

// dropFirst drops the first message of one class on one link end — from a
// node when from is set, to a node when to is set.
type dropFirst struct {
	class    transport.Class
	from, to string
	done     atomic.Bool
}

func (d *dropFirst) Intercept(ctx context.Context, from, to string, class transport.Class, size int64) transport.Fault {
	if class == d.class && (d.from == "" || d.from == from) && (d.to == "" || d.to == to) &&
		d.done.CompareAndSwap(false, true) {
		return transport.Fault{Drop: true}
	}
	return transport.Fault{}
}

// lifecycleDigest renders what the task lifecycle reports about a statement:
// the accounting fields of QueryStats on one line, then one line per
// flight-recorder site with its sequence of event kinds.
func lifecycleDigest(sc *shuffleCluster, st *QueryStats) string {
	devs := make([]string, 0, len(st.BytesByDevice))
	for dev, n := range st.BytesByDevice {
		devs = append(devs, fmt.Sprintf("%s:%d", dev, n))
	}
	sort.Strings(devs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "tasks=%d backup=%d failed=%d sim=%d scan=%d bytes=[%s] spill=%d\n",
		st.Tasks, st.BackupTasks, st.TasksFailed, st.SimTime.Nanoseconds(), st.ScanSimTime.Nanoseconds(),
		strings.Join(devs, " "), st.ShuffleSpillBytes)
	site := ""
	for _, e := range sc.rec.Canonical() {
		if e.Query != st.QueryID {
			continue
		}
		if e.Site != site {
			if site != "" {
				sb.WriteByte('\n')
			}
			site = e.Site
			sb.WriteString(site + ":")
		}
		sb.WriteString(" " + string(e.Kind))
	}
	sb.WriteByte('\n')
	return sb.String()
}

// TestTaskLifecycleCharacterisation pins what a statement's task lifecycle
// reports — the task accounting, the simulated times, the bytes per device
// and every site's sequence of journal events — for a scatter aggregate, a
// group-by shuffle and a repartition join, each run clean, with one dropped
// message and with one dead leaf. Two leaves and three tasks put exactly one
// task (ordinal 1) on leaf1, and a retry has one place to go, so every
// number is a function of the plan and the fault alone.
func TestTaskLifecycleCharacterisation(t *testing.T) {
	statements := []struct {
		name    string
		sql     string
		planner plan.Options
		drop    *dropFirst // the "drop" fault for this statement
	}{
		{"scatter", "SELECT COUNT(*) AS n, SUM(amt) AS s FROM orders", plan.Options{},
			&dropFirst{class: transport.Control, to: "leaf1"}},
		{"group-shuffle", "SELECT amt, COUNT(*) AS n, SUM(id) AS s FROM orders GROUP BY amt ORDER BY amt",
			plan.Options{GroupShuffleRows: 1, ShufflePartitions: 3},
			&dropFirst{class: transport.Shuffle, from: "leaf1"}},
		{"repartition-join", "SELECT COUNT(*) AS n, SUM(o.amt) AS s FROM orders o, users u WHERE o.uid = u.uid",
			plan.Options{BroadcastThreshold: 1, ShufflePartitions: 3},
			&dropFirst{class: transport.Shuffle, from: "leaf1"}},
	}
	for _, s := range statements {
		for _, fault := range []string{"clean", "drop", "dead"} {
			name := s.name + "/" + fault
			t.Run(name, func(t *testing.T) {
				factParts := 3
				if s.planner.BroadcastThreshold > 0 {
					factParts = 2 // the build side's one partition is task 0
				}
				sc := newShuffleCluster(t, 2, 2, factParts, 1, func(cfg *MasterConfig) {
					cfg.Planner = s.planner
					cfg.RetryBackoff = time.Microsecond
				})
				switch fault {
				case "drop":
					s.drop.done.Store(false)
					sc.fabric.SetInterceptor(s.drop)
				case "dead":
					sc.fabric.SetDown("leaf1", true)
				}
				clean := newShuffleCluster(t, 2, 2, factParts, 1, func(cfg *MasterConfig) { cfg.Planner = s.planner })
				rows, _ := clean.query(s.sql, QueryOptions{})
				res, stats := sc.query(s.sql, QueryOptions{})
				assertSameRows(t, name, rows, res)
				// A dropped message and a dead leaf both cost task 1 its first
				// attempt and nothing else: one digest serves the two.
				want := lifecycleWant[s.name+"/clean"]
				if fault != "clean" {
					want = lifecycleWant[s.name+"/retried"]
				}
				if got := lifecycleDigest(sc, stats); got != want {
					t.Errorf("lifecycle digest drifted.\ngot:\n%s\nwant:\n%s", got, want)
				}
			})
		}
	}
}

// lifecycleWant is the digest each statement produced, clean and with task 1
// retried, at the commit that added the test — when a map task had a
// lifecycle of its own (sites read "shuffle.commit shuffle.commit
// shuffle.map", a retry "shuffle.retry" first). Since it goes through the one
// task lifecycle it is journaled as every task is: task.scheduled,
// task.dispatched, task.retry, task.collected. No number moved.
var lifecycleWant = map[string]string{
	"scatter/clean": `tasks=3 backup=0 failed=0 sim=67016302 scan=64013394 bytes=[hdd:2569] spill=0
query/q000001: query.submit query.admitted query.done
task/q000001#0: task.scheduled task.dispatched leaf.exec task.collected
task/q000001#1: task.scheduled task.dispatched leaf.exec task.collected
task/q000001#2: task.scheduled task.dispatched leaf.exec task.collected
`,
	"scatter/retried": `tasks=3 backup=1 failed=0 sim=101024493 scan=96020131 bytes=[hdd:2569] spill=0
query/q000001: query.submit query.admitted query.done
task/q000001#0: task.scheduled task.dispatched leaf.exec task.collected
task/q000001#1: task.scheduled task.dispatched task.retry leaf.exec task.collected
task/q000001#2: task.scheduled task.dispatched leaf.exec task.collected
`,
	"group-shuffle/clean": `tasks=3 backup=0 failed=0 sim=103246026 scan=96014860 bytes=[hdd:2987] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#1: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#2: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
`,
	"group-shuffle/retried": `tasks=3 backup=1 failed=0 sim=151253501 scan=144022335 bytes=[hdd:2987] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#1: task.scheduled task.dispatched task.retry shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#2: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
`,
	"repartition-join/clean": `tasks=3 backup=0 failed=0 sim=87057481 scan=80014722 bytes=[hdd:2913] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#1: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#2: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
`,
	"repartition-join/retried": `tasks=3 backup=1 failed=0 sim=135064888 scan=128022129 bytes=[hdd:2913] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#1: task.scheduled task.dispatched task.retry shuffle.commit shuffle.commit shuffle.map task.collected
task/q000001#2: task.scheduled task.dispatched shuffle.commit shuffle.commit shuffle.map task.collected
`,
}
