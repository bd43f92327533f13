package lru_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lru"
)

type ent struct {
	lru.Node[*ent]
	id int
}

// model is the reference: ids newest first, with their sizes.
type model struct {
	ids   []int
	sizes map[int]int64
}

// run applies the op stream in data to a List and the model, three bytes an
// op: push, touch or remove; the id of the entry; its size if pushed. After
// every op it checks that an oldest-first walk, Len and Bytes agree.
func run(t *testing.T, data []byte) {
	const ids = 16
	var l lru.List[*ent]
	ents := make([]*ent, ids)
	for i := range ents {
		ents[i] = &ent{id: i}
	}
	m := model{sizes: map[int]int64{}}
	for len(data) >= 3 {
		op, id, size := data[0]%3, int(data[1])%ids, int64(data[2])
		data = data[3:]
		at := slices.Index(m.ids, id)
		switch {
		case op == 0 && at < 0:
			l.PushFront(ents[id], size)
			m.ids = slices.Insert(m.ids, 0, id)
			m.sizes[id] = size
		case op == 1 && at >= 0:
			l.Touch(ents[id])
			m.ids = slices.Insert(slices.Delete(m.ids, at, at+1), 0, id)
		case op == 2 && at >= 0:
			l.Remove(ents[id])
			m.ids = slices.Delete(m.ids, at, at+1)
			delete(m.sizes, id)
		}
		var walked []int
		for e := l.Oldest(); e != nil; e = l.Newer(e) {
			walked = append(walked, e.id)
			if e.Size() != m.sizes[e.id] {
				t.Fatalf("entry %d size %d, want %d", e.id, e.Size(), m.sizes[e.id])
			}
		}
		want := slices.Clone(m.ids)
		slices.Reverse(want)
		var bytes int64
		for _, id := range m.ids {
			bytes += m.sizes[id]
		}
		if !slices.Equal(walked, want) || l.Len() != len(m.ids) || l.Bytes() != bytes {
			t.Fatalf("walk %v len %d bytes %d, want %v len %d bytes %d", walked, l.Len(), l.Bytes(), want, len(m.ids), bytes)
		}
	}
}

// TestListMatchesModel drives the list with seeded random op streams.
func TestListMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		run(t, data)
	}
}

// TestRemoveDuringWalk: an oldest-first walk may remove the entry it holds
// once it has taken the next one, as every eviction loop does.
func TestRemoveDuringWalk(t *testing.T) {
	var l lru.List[*ent]
	for i := 0; i < 6; i++ {
		l.PushFront(&ent{id: i}, int64(i))
	}
	var kept []int
	for e := l.Oldest(); e != nil; {
		next := l.Newer(e)
		if e.id%2 == 0 {
			l.Remove(e)
		} else {
			kept = append(kept, e.id)
		}
		e = next
	}
	if !slices.Equal(kept, []int{1, 3, 5}) || l.Len() != 3 || l.Bytes() != 9 {
		t.Fatalf("kept %v len %d bytes %d", kept, l.Len(), l.Bytes())
	}
}

func FuzzLRU(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 20, 0, 3, 30, 1, 1, 0, 2, 2, 0})
	f.Fuzz(run)
}
