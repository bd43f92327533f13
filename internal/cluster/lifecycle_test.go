package cluster

import (
	"context"
	"fmt"
	"runtime"
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
// message and with one dead leaf, at GOMAXPROCS 1 and 4. Two leaves and
// three tasks put exactly one task (ordinal 1) on leaf1, and a retry has one
// place to go, so every number is a function of the plan and the fault alone.
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
				// The digest is a function of the plan and the fault, never of
				// the host: the same numbers at one core and at four.
				for _, procs := range []int{1, 4} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
						// A dropped message and a dead leaf both cost task 1 its
						// first attempt and nothing else: one digest serves the two.
						want := lifecycleWant[s.name+"/clean"]
						if fault != "clean" {
							want = lifecycleWant[s.name+"/retried"]
						}
						if got := lifecycleDigest(sc, stats); got != want {
							t.Errorf("GOMAXPROCS=%d: lifecycle digest drifted.\ngot:\n%s\nwant:\n%s", procs, got, want)
						}
					}()
				}
			})
		}
	}
}

// lifecycleWant is the digest each statement produced, clean and with task 1
// retried. A task that ran once journals one task.done; only a task that
// retried keeps the full chain — task.scheduled, task.dispatched,
// task.retry, the backup's leaf.exec, task.collected — before its task.done.
// The sim and scan times are those of tasks that read their blocks one after
// another: every partition has four 32-row blocks, and each column a block
// reads costs one 8 ms HDD seek after the footer's two (DESIGN.md "One scan
// path"). A leaf's batch reply is billed as one transfer and each shuffle
// message as one (DESIGN.md "The bill follows the message").
var lifecycleWant = map[string]string{
	"scatter/clean": `tasks=3 backup=0 failed=0 sim=98017763 scan=96014854 bytes=[hdd:2594] spill=0
query/q000001: query.submit query.admitted query.done
task/q000001#0: task.done
task/q000001#1: task.done
task/q000001#2: task.done
`,
	"scatter/retried": `tasks=3 backup=1 failed=0 sim=148026659 scan=144022296 bytes=[hdd:2594] spill=0
query/q000001: query.submit query.admitted query.done
task/q000001#0: task.done
task/q000001#1: task.scheduled task.dispatched task.retry leaf.exec task.collected task.done
task/q000001#2: task.done
`,
	"group-shuffle/clean": `tasks=3 backup=0 failed=0 sim=164248795 scan=160017626 bytes=[hdd:3012] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: shuffle.commit shuffle.commit shuffle.map task.done
task/q000001#1: shuffle.commit shuffle.commit shuffle.map task.done
task/q000001#2: shuffle.commit shuffle.commit shuffle.map task.done
`,
	"group-shuffle/retried": `tasks=3 backup=1 failed=0 sim=244257633 scan=240026464 bytes=[hdd:3012] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: shuffle.commit shuffle.commit shuffle.map task.done
task/q000001#1: task.scheduled task.dispatched task.retry shuffle.commit shuffle.commit shuffle.map task.collected task.done
task/q000001#2: shuffle.commit shuffle.commit shuffle.map task.done
`,
	"repartition-join/clean": `tasks=3 backup=0 failed=0 sim=132059570 scan=128016810 bytes=[hdd:2940] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: shuffle.commit shuffle.commit shuffle.map task.done
task/q000001#1: shuffle.commit shuffle.commit shuffle.map task.done
task/q000001#2: shuffle.commit shuffle.commit shuffle.map task.done
`,
	"repartition-join/retried": `tasks=3 backup=1 failed=0 sim=212068407 scan=208025647 bytes=[hdd:2940] spill=0
query/q000001: query.submit query.admitted query.done
shuffle/q000001#p0: shuffle.reduce
shuffle/q000001#p1: shuffle.reduce
shuffle/q000001#p2: shuffle.reduce
task/q000001#0: shuffle.commit shuffle.commit shuffle.map task.done
task/q000001#1: task.scheduled task.dispatched task.retry shuffle.commit shuffle.commit shuffle.map task.collected task.done
task/q000001#2: shuffle.commit shuffle.commit shuffle.map task.done
`,
}
