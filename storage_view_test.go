package feisu

import (
	"context"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestQueriesNeverWriteIntoTheStore: a range read hands the leaf a view of
// the store's own bytes, so a query that wrote into one would change the
// stored file. Every stored file is hashed before and after the differential
// join stream, run once clean and then with corrupted reads on the
// repartition path (every column read is a leaf's) and on the broadcast path
// (the master reads each dimension), and each must be unchanged; under chaos
// each answer must also equal the clean one. A corrupt read is retried on
// both paths.
func TestQueriesNeverWriteIntoTheStore(t *testing.T) {
	spec := workload.DefaultJoinSpec()
	queries := workload.JoinQueries(spec.FactName, spec.DimName, 20250809, 160)
	ctx := context.Background()
	var clean []string
	for _, arm := range []struct {
		name    string
		shuffle bool
		corrupt float64
	}{{"clean", true, 0}, {"shuffle", true, 0.01}, {"broadcast", false, 0.01}} {
		sys, _ := newJoinSystem(t, func(c *Config) {
			if arm.shuffle {
				forceShuffle(c) // repartition joins: every column read is a leaf's
			}
			if arm.corrupt > 0 {
				c.TaskTimeout = 250 * time.Millisecond
				c.Chaos = &chaos.Config{Seed: 7, Storage: chaos.StorageChaos{Corrupt: arm.corrupt}}
			}
		})
		// The unwrapped stores: a hash read through the chaos plane would
		// see its corruption.
		stores := []storage.Store{sys.hdfs, sys.ffs}
		before := hashStoredFiles(t, stores)
		if len(before) == 0 {
			t.Fatal("no stored files to hash")
		}
		failed := 0
		for i, q := range queries {
			res, err := sys.Query(ctx, q)
			if arm.corrupt > 0 && errors.Is(err, cluster.ErrShuffleFailed) {
				failed++ // the one typed failure a repartition join may give
				continue
			}
			if err != nil {
				t.Fatalf("%s arm #%d %q: %v", arm.name, i, q, err)
			}
			if arm.corrupt == 0 {
				clean = append(clean, renderRows(res))
			} else if got := renderRows(res); got != clean[i] {
				t.Fatalf("%s arm #%d %q:\n got %s\nwant %s", arm.name, i, q, got, clean[i])
			}
		}
		if arm.corrupt > 0 {
			n := sys.Chaos().Corruptions.Value()
			if n == 0 {
				t.Fatal("no read was corrupted; the chaos arm proved nothing")
			}
			t.Logf("%s arm: %d corrupted reads, %d of %d statements failed typed", arm.name, n, failed, len(queries))
		}
		after := hashStoredFiles(t, stores)
		if len(after) != len(before) {
			t.Fatalf("%s arm: %d stored files before the stream, %d after", arm.name, len(before), len(after))
		}
		for path, h := range before {
			if after[path] != h {
				t.Fatalf("%s arm: the stream changed the bytes of %s", arm.name, path)
			}
		}
	}
}

// hashStoredFiles hashes every file of stores through ReadFile, by path.
func hashStoredFiles(t *testing.T, stores []storage.Store) map[string][sha256.Size]byte {
	t.Helper()
	ctx := context.Background()
	out := make(map[string][sha256.Size]byte)
	for _, s := range stores {
		paths, err := s.List(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := s.ReadFile(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			out[s.Scheme()+p] = sha256.Sum256(data)
		}
	}
	return out
}
