package cluster

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The task lifecycle (paper §III-B/C): one job scheduler places sub-plans on
// leaves and re-issues a failed one as a backup task on another leaf. A
// scatter task and a shuffle's map task differ in what the leaf does with the
// scan's output (taskBatch.Exchange), not in how they are placed, sent, retried or
// accounted: every task of every statement goes through runTasks.

// taskDone is one task's terminal outcome: the status of its last attempt
// (of the winning one when it succeeded) and the backup tasks it took.
type taskDone struct {
	ordinal int
	taskStatus
	backups int
	tried   []string // the leaves of the failed attempts, in order
}

// groupDone is one dispatch group's outcome: its tasks in ascending ordinal
// and the left fold of their results in that order.
type groupDone struct {
	tasks  []taskDone
	merged *exec.TaskResult
}

// runTasks drives job.Tasks to their terminal outcomes: stamp the task
// timeout, place every task and hold its slot, dispatch the
// first attempts one job per group — per stem for a scatter, straight from
// the master's own local stem for map tasks (no extra hop, no plan shipped)
// — back up what fails there, and account every outcome. It returns the
// groups in arrival order, and whether the context ended before all of them
// arrived.
func (q *statement) runTasks(ctx context.Context, job stemJobMsg) (groups []groupDone, deadline bool, err error) {
	m, stats, tasks := q.m, q.stats, job.Tasks
	stats.Tasks, stats.BytesByDevice = len(tasks), make(map[string]int64)
	q.prog.update(func(p *QueryProgress) { p.TasksPlanned = len(tasks) })
	if len(tasks) == 0 {
		return nil, false, nil
	}
	job.Batch.TaskTimeout = cmp.Or(q.opts.TaskTimeout, m.cfg.DefaultTaskTimeout)
	// PlanAll charges a slot per task, so concurrent statements' placements
	// see each other's live claims; runGroup returns them with its outcome.
	if job.Assign, err = m.Scheduler.PlanAll(tasks); err != nil {
		return nil, false, err
	}
	job.Batch.QueryID = q.qid

	// Each group's goroutine sends exactly one groupDone and the channel
	// holds them all, so a collector that gave up at the deadline strands
	// nobody.
	byStem := map[string][]plan.TaskSpec{m.cfg.Name: tasks}
	if job.Batch.Exchange == "" {
		byStem = m.groupByStem(tasks, job.Assign)
	}
	results := make(chan groupDone, len(byStem))
	for stemName, group := range byStem {
		job.Tasks = group
		go q.runGroup(ctx, stemName, job, results)
	}

	// Tasks run in parallel under the cost model, a leaf's own one after
	// another: the critical path is the busiest leaf (busy), of which scan
	// is the leaf-execution part.
	completed, busy, scan := 0, map[string]time.Duration{}, map[string]time.Duration{}
	for len(groups) < len(byStem) && !deadline {
		select {
		case g := <-results:
			groups = append(groups, g)
			for i := range g.tasks {
				d := &g.tasks[i]
				q.account(d)
				if d.OK {
					completed++
					busy[d.Leaf] += d.SimTime
					scan[d.Leaf] += d.ScanSim
					stats.SimTime = max(stats.SimTime, busy[d.Leaf])
					stats.ScanSimTime = max(stats.ScanSimTime, scan[d.Leaf])
				}
			}
		case <-ctx.Done():
			deadline = true
			stats.TasksFailed = len(tasks) - completed
		}
	}
	return groups, deadline, nil
}

// runGroup runs one group's job on its stem and then, in ordinal order, a
// backup task for every task that failed there.
func (q *statement) runGroup(ctx context.Context, stemName string, job stemJobMsg, results chan<- groupDone) {
	m := q.m
	q.prog.update(func(p *QueryProgress) { p.TasksDispatched += len(job.Tasks) })
	reply, err := callStem[stemReply](ctx, m, stemName, job)
	if err == nil && len(reply.Status) != len(job.Tasks) {
		err = fmt.Errorf("cluster: stem %s answered for %d of %d tasks", stemName, len(reply.Status), len(job.Tasks))
	}
	// reply.Merged already holds the tasks before the stem's first failure;
	// from there on each result — the backup task's, then the tail the stem
	// relayed — folds in here, in the same order.
	g := groupDone{tasks: make([]taskDone, len(job.Tasks)), merged: reply.Merged}
	for i, t := range job.Tasks {
		d := taskDone{ordinal: t.Ordinal}
		res := reply.Tail[t.Ordinal]
		if err != nil {
			d.Err = err.Error()
		} else if d.taskStatus = reply.Status[i]; d.Unreachable {
			// Dispatch hit an unknown/down node: suspect it now rather than
			// waiting out the liveness window.
			m.Manager.MarkSuspect(d.Leaf)
		}
		if !d.OK {
			d.Leaf = job.Assign[t.Ordinal]
			site := events.TaskSite(q.qid, t.Ordinal) // a failed task journals its full chain
			m.cfg.Events.Emit(site, events.TaskScheduled, q.qid, t.Ordinal, d.Leaf)
			m.cfg.Events.Emit(site, events.TaskDispatched, q.qid, t.Ordinal, d.Leaf+" via "+stemName)
			res = q.retryTask(ctx, &job, t, &d)
		}
		g.merged = exec.MergeResults(job.Plan, g.merged, res)
		g.tasks[i] = d
	}
	for _, t := range job.Tasks {
		m.Scheduler.ReleaseTask(job.Assign[t.Ordinal])
	}
	results <- g
}

// account books one task's terminal outcome into the statement's stats, the
// journal and the progress entry. Every task journals one task.done; one
// that took a backup task first closes its full chain with task.collected.
func (q *statement) account(d *taskDone) {
	stats, ev := q.stats, q.m.cfg.Events
	site, detail := "", ""
	if ev.Enabled() {
		site, detail = events.TaskSite(q.qid, d.ordinal), d.Leaf+" rows="+strconv.Itoa(d.Rows)
		if len(d.tried) > 0 {
			detail += " attempts=" + strings.Join(append(d.tried, d.Leaf), ",")
		}
	}
	if !d.OK {
		stats.TasksFailed++
		stats.TaskErrors = append(stats.TaskErrors, TaskError{Ordinal: d.ordinal, Leaf: d.Leaf, Err: d.Err})
		ev.Emit(site, events.TaskPartial, q.qid, d.ordinal, d.Err)
	} else {
		stats.BackupTasks += d.backups
		d.DevBytes.AddTo(stats.BytesByDevice)
		if d.backups > 0 {
			ev.EmitSim(site, events.TaskCollected, q.qid, d.ordinal, d.SimTime, detail)
		}
	}
	ev.EmitSim(site, events.TaskDone, q.qid, d.ordinal, d.SimTime, detail)
	q.prog.update(func(p *QueryProgress) {
		if !d.OK {
			p.TasksFailed++
		} else {
			p.TasksDone++
			p.Rows += int64(d.Rows)
		}
		p.TasksRetried += d.backups
	})
}

// scatter runs a statement that is not repartitioned, folds its groups and
// applies the early-return policy. The fold is by ordinal, never by arrival:
// within a group ascending, the groups in ascending first ordinal. Float
// aggregates are not associative, so any other rule makes the same statement
// return different last digits run to run; with one group the fold is
// exactly a single node's.
func (q *statement) scatter(ctx context.Context) (*exec.TaskResult, error) {
	tasks := q.p.Tasks()
	groups, deadline, err := q.runTasks(ctx, stemJobMsg{Plan: q.p, Tasks: tasks})
	if err != nil {
		return nil, err
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].tasks[0].ordinal < groups[j].tasks[0].ordinal })
	var merged *exec.TaskResult
	for _, g := range groups {
		merged = exec.MergeResults(q.p, merged, g.merged)
	}
	failed := q.stats.TasksFailed
	if failed == 0 {
		return merged, nil
	}
	completed := len(tasks) - failed
	if r := q.opts.MinProcessedRatio; r > 0 && float64(completed)/float64(len(tasks)) >= r {
		return merged, nil // partial result accepted (§III-B)
	}
	if q.opts.PartialResults && completed > 0 {
		// Graceful degradation: return what completed; the dropped tasks
		// are reported per leaf in stats.TaskErrors.
		q.m.Partials.Inc()
		return merged, nil
	}
	if deadline {
		return nil, fmt.Errorf("%w: %d/%d tasks", ErrDeadline, completed, len(tasks))
	}
	return nil, fmt.Errorf("cluster: %d of %d tasks failed permanently", failed, len(tasks))
}

// retryTask issues backup tasks on other leaves until one succeeds or the
// retry budget runs out, and returns the winner's result (a map task has
// none); d.Leaf is the leaf the first dispatch failed on, and d ends as the
// last attempt's outcome. Leaves the manager no longer reports alive are
// excluded from every attempt, and attempts are spaced by exponential
// backoff with deterministic jitter so a burst of failures does not hammer
// the survivors in lockstep.
func (q *statement) retryTask(ctx context.Context, job *stemJobMsg, t plan.TaskSpec, d *taskDone) *exec.TaskResult {
	m := q.m
	exclude := map[string]bool{d.Leaf: true}
	// The budget is the partition's: it counts executions that ran and
	// failed. A dispatch that found its leaf down ran nothing, costs nothing
	// and cannot repeat (the leaf is excluded), so it is not charged —
	// otherwise one dead leaf halves the tolerance to real read faults.
	budget := m.cfg.MaxTaskRetries
	if d.Unreachable {
		budget++
	}
	one := stemJobMsg{Plan: job.Plan, Tasks: []plan.TaskSpec{t}, Batch: job.Batch}
	for attempt := 0; attempt < budget; attempt++ {
		if m.cfg.RetryBackoff > 0 && !sleepCtx(ctx, retryDelay(m.cfg.RetryBackoff, t.Key(), attempt)) {
			return nil
		}
		if ctx.Err() != nil {
			return nil
		}
		m.excludeUnhealthy(exclude)
		leaf, err := m.Scheduler.Place(t, exclude)
		if err != nil {
			return nil
		}
		d.backups++
		m.Retries.Inc()
		m.cfg.Events.Emit(events.TaskSite(q.qid, t.Ordinal), events.TaskRetry,
			q.qid, t.Ordinal, fmt.Sprintf("attempt %d on %s: %s", attempt+1, leaf, d.Err))
		one.Batch.Attempt = attempt + 1
		res, st := []*exec.TaskResult{nil}, []taskStatus{{}}
		m.localStem.attempt(ctx, &one, leaf, []int{0}, []*trace.Span{taskSpan(ctx, t.Ordinal, leaf)}, res, st)
		d.tried = append(d.tried, d.Leaf)
		if d.taskStatus = st[0]; d.OK {
			return res[0]
		}
		if d.Unreachable {
			m.Manager.MarkSuspect(leaf)
			budget++
		}
		exclude[leaf] = true
	}
	return nil
}

// excludeUnhealthy adds every leaf the manager does not report alive to the
// exclusion set, so retries never route to dead, degraded or suspect nodes.
func (m *Master) excludeUnhealthy(exclude map[string]bool) {
	for _, n := range m.Manager.Health().Nodes {
		if n.Kind == KindLeaf && n.State != StateAlive {
			exclude[n.Name] = true
		}
	}
}

// retryDelay computes the pause before a backup attempt: base<<attempt plus
// jitter in [0, base) hashed from the task key and attempt — deterministic
// (replayable under a chaos seed) yet decorrelated across tasks.
func retryDelay(base time.Duration, key string, attempt int) time.Duration {
	attempt = min(attempt, 16)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	jitter := time.Duration(h.Sum64() % uint64(base))
	return base<<attempt + jitter
}

// sleepCtx pauses for d, returning false if the context ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// groupByStem maps each task to a stem server (by its assigned leaf), or to
// the master itself when no stems are alive. Groups keep task order.
func (m *Master) groupByStem(tasks []plan.TaskSpec, assign map[int]string) map[string][]plan.TaskSpec {
	stems := m.Manager.AliveWorkers(KindStem)
	if len(stems) == 0 {
		return map[string][]plan.TaskSpec{m.cfg.Name: tasks}
	}
	out := make(map[string][]plan.TaskSpec, len(stems))
	// Stable leaf->stem mapping: by index among the assigned leaves, sorted.
	leaves := make([]string, 0, len(stems))
	for _, l := range assign {
		if !slices.Contains(leaves, l) {
			leaves = append(leaves, l)
		}
	}
	sort.Strings(leaves)
	for _, t := range tasks {
		s := stems[sort.SearchStrings(leaves, assign[t.Ordinal])%len(stems)]
		out[s] = append(out[s], t)
	}
	return out
}

// callStem sends a stem one request — over the fabric, or straight into the
// local stem when addressed to the master itself — and returns the reply as
// the type the request answers with.
func callStem[R any](ctx context.Context, m *Master, stem string, msg any) (reply R, err error) {
	var raw any
	if stem == m.cfg.Name {
		raw, err = m.localStem.handle(ctx, stem, msg)
	} else {
		raw, err = m.cfg.Fabric.Call(ctx, m.cfg.Name, stem, transport.Control, msg, 512)
	}
	if err != nil {
		return reply, err
	}
	reply, ok := raw.(R)
	if !ok {
		return reply, fmt.Errorf("cluster: unexpected reply %T from %s", raw, stem)
	}
	return reply, nil
}
