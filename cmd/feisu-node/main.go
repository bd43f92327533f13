// Command feisu-node runs one Feisu cluster role — master, stem or leaf — as
// its own OS process, wired to its peers over the TCP transport. It is the
// multi-process deployment of the same cluster stack the in-process System
// drives over the simulated fabric: identical masters, stems, leaves and wire
// payloads, with real sockets in between.
//
// Every process deterministically generates its own replica of the workload
// dataset (same seeds, same bytes), standing in for a shared storage system:
// a leaf reads the partitions the master's catalog names from its local
// replica, as a real deployment reads shared HDFS.
//
//	feisu-node -role master -listen 127.0.0.1:7000 -peers ... -http 127.0.0.1:8080
//	feisu-node -role stem   -name stem0 -listen 127.0.0.1:7001 -peers ...
//	feisu-node -role leaf   -name leaf0 -listen 127.0.0.1:7002 -peers ...
//
// This package's TestMultiProcessCluster boots a 1-master/2-stem/4-leaf
// cluster of these processes on loopback and queries it over the master's
// HTTP endpoint.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/events"
	execpkg "repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/workload"
)

type nodeConfig struct {
	role      string
	name      string
	listen    string
	peers     string
	leaves    int
	stems     int
	racks     int
	httpAddr  string
	dataset   string
	broadcast int64
	beat      time.Duration
	verbose   bool
}

func main() {
	var cfg nodeConfig
	flag.StringVar(&cfg.role, "role", "", "node role: master, stem or leaf")
	flag.StringVar(&cfg.name, "name", "", `node name (defaults: "master", "stem0", "leaf0")`)
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "cluster RPC listen address")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated name=host:port for every other cluster member")
	flag.IntVar(&cfg.leaves, "leaves", 4, "cluster-wide leaf count (topology + data placement)")
	flag.IntVar(&cfg.stems, "stems", 2, "cluster-wide stem count")
	flag.IntVar(&cfg.racks, "racks", 4, "leaves per rack in the simulated topology")
	flag.StringVar(&cfg.httpAddr, "http", "", "master: HTTP listen address for /query, /healthz, /debug/events")
	flag.StringVar(&cfg.dataset, "dataset", "join", "deterministic generated workload: join, t1 or none")
	flag.Int64Var(&cfg.broadcast, "broadcast-threshold", 0, "planner broadcast threshold in bytes; 1 forces repartition joins, 0 keeps the default")
	flag.DurationVar(&cfg.beat, "heartbeat", 2*time.Second, "worker heartbeat interval")
	flag.BoolVar(&cfg.verbose, "v", false, "verbose logging")
	flag.Parse()

	if err := runNode(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "feisu-node:", err)
		os.Exit(1)
	}
}

func defaultName(role string) string {
	switch role {
	case "master":
		return "master"
	case "stem":
		return "stem0"
	default:
		return "leaf0"
	}
}

// buildData generates the node's replica of the workload dataset and returns
// the catalog entries (registered by the master only).
func buildData(ctx context.Context, router *storage.Router, dataset string, leaves int) ([]*plan.TableMeta, error) {
	switch dataset {
	case "none":
		return nil, nil
	case "t1":
		spec := workload.T1Spec()
		spec.Partitions = leaves
		spec.RowsPerPart = 512
		meta, err := workload.Generate(ctx, router, spec)
		if err != nil {
			return nil, err
		}
		return []*plan.TableMeta{meta}, nil
	case "join":
		spec := workload.DefaultJoinSpec()
		spec.FactPartitions = leaves
		factMeta, dimMeta, _, _, err := workload.GenerateJoin(ctx, router, spec)
		if err != nil {
			return nil, err
		}
		return []*plan.TableMeta{factMeta, dimMeta}, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

func runNode(cfg nodeConfig) error {
	if cfg.role != "master" && cfg.role != "stem" && cfg.role != "leaf" {
		return fmt.Errorf("missing or invalid -role %q (want master, stem or leaf)", cfg.role)
	}
	if cfg.name == "" {
		cfg.name = defaultName(cfg.role)
	}
	logf := func(format string, args ...any) {
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{cfg.name}, args...)...)
		}
	}

	model := sim.DefaultCostModel()
	topo := transport.NewTopology()
	leafName := func(i int) string { return fmt.Sprintf("leaf%d", i) }
	for i := 0; i < cfg.leaves; i++ {
		topo.Place(leafName(i), fmt.Sprintf("rack%d", i/cfg.racks), "dc1")
	}
	topo.Place("master", "rack-master", "dc1")

	tcpNet, err := transport.NewTCP(topo, transport.Options{Model: model}, transport.TCPOptions{ListenAddr: cfg.listen})
	if err != nil {
		return err
	}
	defer tcpNet.Close()
	for _, entry := range strings.Split(cfg.peers, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("bad -peers entry %q (want name=host:port)", entry)
		}
		tcpNet.AddPeer(name, addr)
	}
	logf("cluster RPC on %s", tcpNet.Addr())

	// Each process holds an identical deterministic replica of the dataset
	// (same seeds → same bytes), standing in for shared storage.
	hdfs := storage.NewHDFS("hdfs", model)
	ffs := storage.NewFatman("ffs", model)
	router := storage.NewRouter(storage.NewMemFS("", model))
	router.Register(hdfs)
	router.Register(ffs)
	for i := 0; i < cfg.leaves; i++ {
		rack := fmt.Sprintf("rack%d", i/cfg.racks)
		hdfs.AddNode(leafName(i), rack)
		ffs.AddNode(leafName(i), rack)
	}
	ctx := context.Background()
	metas, err := buildData(ctx, router, cfg.dataset, cfg.leaves)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}

	rec := events.New(4096)
	reg := metrics.NewRegistry()

	var httpSrv *http.Server
	switch cfg.role {
	case "master":
		m := cluster.NewMaster(cluster.MasterConfig{
			Name:           cfg.name,
			Fabric:         tcpNet,
			Router:         router,
			Model:          model,
			MaxQueryBytes:  1 << 20,
			LivenessWindow: time.Minute,
			Metrics:        reg,
			Events:         rec,
			Planner:        plan.Options{BroadcastThreshold: cfg.broadcast},
		})
		for _, meta := range metas {
			if err := m.RegisterTable(ctx, meta); err != nil {
				return fmt.Errorf("catalog: %w", err)
			}
		}
		if cfg.httpAddr != "" {
			srv, err := serveHTTP(cfg.httpAddr, m, rec, logf)
			if err != nil {
				return err
			}
			httpSrv = srv
		}
	case "stem":
		st := &cluster.StemServer{Name: cfg.name, Fabric: tcpNet, Router: router, Model: model, Events: rec}
		st.Register()
		st.Start("master", cfg.beat)
		defer st.Stop()
	case "leaf":
		idx := core.New(core.Options{Model: model})
		leaf := &cluster.LeafServer{
			Name:   cfg.name,
			Fabric: tcpNet,
			Reader: execpkg.NewStoreReader(router),
			Index:  idx,
			Router: router,
			Model:  model,
			Events: rec,
			// Spill stays off across processes: each node's storage replica
			// is local, so a spilled partial written here could not be read
			// back by a stem in another process.
		}
		leaf.Register()
		leaf.Start("master", cfg.beat)
		defer leaf.Stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logf("shutting down")
	if httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(sctx)
	}
	return nil
}

// --- master HTTP surface ---------------------------------------------------

type queryResponse struct {
	QueryID string     `json:"queryID"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Wall    string     `json:"wall"`
	Sim     string     `json:"sim"`
	Tasks   int        `json:"tasks"`
	// Shuffled reports whether the query ran through the repartition
	// shuffle (hash-partitioned map tasks feeding stem reducers).
	Shuffled bool `json:"shuffled"`
}

type healthResponse struct {
	Alive    int      `json:"alive"`
	Degraded int      `json:"degraded"`
	Dead     int      `json:"dead"`
	Nodes    []string `json:"nodes"`
}

func serveHTTP(addr string, m *cluster.Master, rec *events.Recorder, logf func(string, ...any)) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("http listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		sql := r.URL.Query().Get("sql")
		if sql == "" {
			http.Error(w, "missing ?sql=", http.StatusBadRequest)
			return
		}
		res, stats, err := m.Submit(r.Context(), sql, cluster.QueryOptions{Trace: true})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := queryResponse{Columns: res.Columns, Rows: make([][]string, len(res.Rows))}
		for i, row := range res.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			resp.Rows[i] = cells
		}
		if stats != nil {
			resp.QueryID = stats.QueryID
			resp.Wall = stats.WallTime.String()
			resp.Sim = stats.SimTime.String()
			resp.Tasks = stats.Tasks
			resp.Shuffled = stats.Trace != nil && len(stats.Trace.FindAll("shuffle-")) > 0
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := m.Health()
		resp := healthResponse{Alive: h.Alive, Degraded: h.Degraded, Dead: h.Dead}
		for _, n := range h.Nodes {
			resp.Nodes = append(resp.Nodes, n.Name)
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, rec.Events())
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	logf("http on %s", ln.Addr())
	return srv, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
