// Package lru is the recency list of every cache of the engine: column
// chunks, results and their ghosts, SmartIndex entries and footers. Each
// caller keeps its own map and policy. An entry type embeds Node, so linking
// an entry allocates nothing.
package lru

// Node is the handle an entry type embeds, with E a pointer to that type:
// type item struct { lru.Node[*item]; ... }.
type Node[E any] struct {
	newer, older E
	size         int64
}

func (n *Node[E]) node() *Node[E] { return n }

// Size returns the byte count the entry was pushed with.
func (n *Node[E]) Size() int64 { return n.size }

// Entry is a pointer to a type that embeds Node.
type Entry[E any] interface {
	comparable
	node() *Node[E]
}

// List orders entries from the most to the least recently used. The zero
// List is empty. Callers hold their own lock.
type List[E Entry[E]] struct {
	newest, oldest E
	bytes          int64
	n              int
}

// PushFront links e, which is in no list, as the newest entry of size bytes.
func (l *List[E]) PushFront(e E, size int64) {
	var zero E
	n := e.node()
	n.newer, n.older, n.size = zero, l.newest, size
	if l.newest != zero {
		l.newest.node().newer = e
	} else {
		l.oldest = e
	}
	l.newest = e
	l.bytes += size
	l.n++
}

// Remove unlinks e, which is in l.
func (l *List[E]) Remove(e E) {
	var zero E
	n := e.node()
	if n.newer != zero {
		n.newer.node().older = n.older
	} else {
		l.newest = n.older
	}
	if n.older != zero {
		n.older.node().newer = n.newer
	} else {
		l.oldest = n.newer
	}
	n.newer, n.older = zero, zero
	l.bytes -= n.size
	l.n--
}

// Touch makes e, which is in l, the newest entry.
func (l *List[E]) Touch(e E) {
	if l.newest != e {
		l.Remove(e)
		l.PushFront(e, e.node().size)
	}
}

// Oldest returns the least recently used entry; the zero E when l is empty.
func (l *List[E]) Oldest() E { return l.oldest }

// Newer returns the entry after e in an oldest-first walk (the zero E after
// the newest). A walk may remove e once it has taken the next.
func (l *List[E]) Newer(e E) E { return e.node().newer }

// Bytes returns the sizes of all entries summed.
func (l *List[E]) Bytes() int64 { return l.bytes }

// Len returns the number of entries.
func (l *List[E]) Len() int { return l.n }
