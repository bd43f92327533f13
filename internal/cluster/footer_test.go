package cluster

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/plan"
)

// TestMasterFootersReadBack runs the footer read-back check on the master's
// reader, through the path that uses it: broadcast dimension loads. Once the
// dimension's footer has left the reader (Release drops it as an eviction
// does), the next load reads back an equal footer and the same answer.
func TestMasterFootersReadBack(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, nil)
	tc.addUsersDim(t)
	const sql = "SELECT name, COUNT(*) AS n FROM logs JOIN names ON logs.v = names.v WHERE logs.v < 2 GROUP BY name ORDER BY name"
	ctx := context.Background()
	dim := plan.PartitionMeta{Path: "/dims/users"}
	held := func() *colstore.FileMeta {
		t.Helper()
		m, err := tc.master.reader.Meta(ctx, dim)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	first, _ := tc.query(sql, QueryOptions{})
	before := held()
	tc.master.ReleaseFooter(dim.Path)
	again, _ := tc.query(sql, QueryOptions{})
	if !reflect.DeepEqual(again.Rows, first.Rows) {
		t.Fatalf("after the footer was read again: %v, want %v", again.Rows, first.Rows)
	}
	after := held()
	if after == before || !reflect.DeepEqual(after, before) || held() != after {
		t.Fatal("the master did not re-read and cache a footer equal to the one it held")
	}
}
