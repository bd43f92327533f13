package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// freeAddr reserves an ephemeral loopback port and returns it. The listener
// is closed before the child binds, which is racy in principle; on loopback
// the window is negligible and a collision fails loudly.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func get(addr string) (string, error) {
	resp, err := http.Get(addr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s: %s", resp.Status, body)
	}
	return string(body), err
}

func getJSON(addr string, out any) error {
	body, err := get(addr)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}

// TestMultiProcessCluster builds feisu-node, boots a 1-master/2-stem/4-leaf
// cluster of child processes on loopback, runs three queries (scan-agg,
// group-by and a forced repartition join) over the master's HTTP endpoint,
// and reads the master process's telemetry endpoints: each query's
// journaled submit→done chain in the flight recorder, the query counters
// and latency histogram on /metrics, the GROUP BY's and the join's kept
// traces as Jaeger documents, and the live-query view.
func TestMultiProcessCluster(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "feisu-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	order := []string{"master", "stem0", "stem1", "leaf0", "leaf1", "leaf2", "leaf3"}
	addrs := make(map[string]string, len(order))
	var peerList []string
	for _, n := range order {
		addrs[n] = freeAddr(t)
		peerList = append(peerList, n+"="+addrs[n])
	}
	httpAddr := freeAddr(t)
	peers := strings.Join(peerList, ",")

	var procs []*exec.Cmd
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.Process.Kill()
		}
		for _, p := range procs {
			_ = p.Wait()
		}
	})
	for _, n := range order {
		args := []string{
			"-role", strings.TrimRight(n, "0123"), "-name", n, "-listen", addrs[n], "-peers", peers,
			"-leaves", "4", "-stems", "2", "-dataset", "join", "-heartbeat", "500ms",
		}
		if n == "master" {
			args = append(args, "-http", httpAddr, "-broadcast-threshold", "1")
		}
		if testing.Verbose() {
			args = append(args, "-v")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", n, err)
		}
		procs = append(procs, cmd)
	}

	// Wait for every worker (2 stems + 4 leaves) to heartbeat in.
	base := "http://" + httpAddr
	deadline := time.Now().Add(30 * time.Second)
	for {
		var alive int
		if body, err := get(base + "/healthz"); err == nil {
			_, _ = fmt.Sscanf(body, "ok: %d nodes alive", &alive)
		}
		if alive >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster did not become healthy within 30s")
		}
		time.Sleep(100 * time.Millisecond)
	}

	queries := []string{
		"SELECT COUNT(*) FROM orders",
		"SELECT grp, SUM(v) FROM orders GROUP BY grp",
		// -broadcast-threshold 1 forces this join through the repartition
		// shuffle: map tasks on leaves, hash frames to stem reducers.
		"SELECT users.cat, COUNT(*) FROM orders JOIN users ON orders.k = users.k GROUP BY users.cat",
	}
	var ids []string
	for i, q := range queries {
		var resp queryResponse
		if err := getJSON(base+"/query?sql="+url.QueryEscape(q), &resp); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(resp.Rows) == 0 {
			t.Fatalf("query %q returned no rows", q)
		}
		if resp.QueryID == "" {
			t.Fatalf("query %q carried no query ID", q)
		}
		if i == 2 && !resp.Shuffled {
			t.Fatal("join query did not run through the repartition shuffle")
		}
		t.Logf("%s → %d row(s), %d task(s), wall %s, shuffled=%v", resp.QueryID, len(resp.Rows), resp.Tasks, resp.Wall, resp.Shuffled)
		ids = append(ids, resp.QueryID)
	}

	// The flight recorder must journal each query's full lifecycle chain.
	for _, id := range ids {
		var journal struct{ Events []events.Event }
		if err := getJSON(base+"/debug/events?format=json&query="+id, &journal); err != nil {
			t.Fatalf("events: %v", err)
		}
		var submit, done uint64
		for _, e := range journal.Events {
			if e.Query != id {
				t.Fatalf("events for %s include %s's %s", id, e.Query, e.Kind)
			}
			switch e.Kind {
			case events.QuerySubmit:
				submit = e.Seq
			case events.QueryDone:
				done = e.Seq
			}
		}
		if submit == 0 || done == 0 || submit >= done {
			t.Fatalf("query %s: journaled chain broken (submit seq %d, done seq %d)", id, submit, done)
		}
	}

	// The master process serves its own counters and latency histogram.
	metrics, err := get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"feisu_queries_total 3", "feisu_query_wall_seconds_count 3"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// It kept the traced statements as Jaeger documents, holding the spans of
	// the stems and leaves that ran them, which came back from other OS
	// processes inside their replies: the GROUP BY's scatter through the stem
	// processes, and the join's shuffle with map tasks on the leaves (sent
	// from the master, no stem/ span) and reduces on the stems.
	for _, want := range []struct {
		id       string
		prefixes []string
	}{
		{ids[1], []string{"stem/", "task#", "leaf/"}},
		{ids[2], []string{"shuffle-", "task#", "leaf/", "reduce/"}},
	} {
		var doc struct {
			Data []struct {
				Spans []struct {
					OperationName string `json:"operationName"`
				} `json:"spans"`
			} `json:"data"`
		}
		if err := getJSON(base+"/debug/trace/"+want.id, &doc); err != nil {
			t.Fatalf("trace %s: %v", want.id, err)
		}
		var ops []string
		for _, d := range doc.Data {
			for _, sp := range d.Spans {
				ops = append(ops, sp.OperationName)
			}
		}
		for _, prefix := range want.prefixes {
			if !slices.ContainsFunc(ops, func(op string) bool { return strings.HasPrefix(op, prefix) }) {
				t.Errorf("trace %s has no %s span: %v", want.id, prefix, ops)
			}
		}
	}

	var active struct {
		Active  int   `json:"active"`
		Queries []any `json:"queries"`
	}
	if err := getJSON(base+"/debug/queries?format=json", &active); err != nil || active.Active != 0 {
		t.Errorf("/debug/queries = %+v, %v; want no query in flight", active, err)
	}
}
