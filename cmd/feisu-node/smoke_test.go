package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
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

func getJSON(addr string, out any) error {
	resp, err := http.Get(addr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestMultiProcessCluster builds feisu-node, boots a 1-master/2-stem/4-leaf
// cluster of child processes on loopback, runs three queries (scan-agg,
// group-by and a forced repartition join) over the master's HTTP endpoint,
// and asserts each query's journaled submit→done chain in the flight
// recorder.
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
		var h healthResponse
		if err := getJSON(base+"/healthz", &h); err == nil && h.Alive >= 6 {
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
	var evs []events.Event
	if err := getJSON(base+"/debug/events", &evs); err != nil {
		t.Fatalf("events: %v", err)
	}
	for _, id := range ids {
		var submit, done uint64
		for _, e := range evs {
			if e.Query != id {
				continue
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
}
