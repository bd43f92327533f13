package storage

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// DFS simulates a replicated distributed filesystem: files are split into
// fixed-size blocks, each block is placed on several datanodes with
// rack-aware placement, and reads fall over to surviving replicas when
// nodes go down. Two configurations ship:
//
//   - NewHDFS: the paper's HDFS store (3 replicas, HDD device class);
//   - NewFatman: the paper's Fatman cold archive [Qin et al., VLDB'14] —
//     volunteer machines, throttled bandwidth, modeled by the Cold device
//     class and 2 replicas.
type DFS struct {
	scheme    string
	device    sim.DeviceClass
	model     *sim.CostModel
	blockSize int64
	replicas  int

	mu       sync.RWMutex
	nodes    []string
	racks    map[string]string // node -> rack
	down     map[string]bool
	downs    int // nodes down now: the true entries of down
	files    map[string]*dfsFile
	placeCur int
}

type dfsFile struct {
	size    int64
	blocks  []dfsBlock
	holders []string // the union of the blocks' replicas, sorted
}

// dfsBlock is one stored block. Its data is never written after WriteFile
// made it: a rewrite or truncation replaces the file's blocks, so a view
// ReadRange handed out earlier keeps the bytes it was taken at.
type dfsBlock struct {
	data     []byte
	replicas []string
}

// NewHDFS returns an HDFS-like store with 3-way replication.
func NewHDFS(scheme string, model *sim.CostModel) *DFS {
	return newDFS(scheme, sim.DeviceHDD, model, 64<<20, 3)
}

// NewFatman returns a Fatman-like cold archive with 2-way replication.
func NewFatman(scheme string, model *sim.CostModel) *DFS {
	return newDFS(scheme, sim.DeviceCold, model, 64<<20, 2)
}

func newDFS(scheme string, device sim.DeviceClass, model *sim.CostModel, blockSize int64, replicas int) *DFS {
	return &DFS{
		scheme:    scheme,
		device:    device,
		model:     model,
		blockSize: blockSize,
		replicas:  replicas,
		racks:     make(map[string]string),
		down:      make(map[string]bool),
		files:     make(map[string]*dfsFile),
	}
}

// SetBlockSize overrides the block size (tests use small blocks).
func (d *DFS) SetBlockSize(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > 0 {
		d.blockSize = n
	}
}

// AddNode registers a datanode in the given rack.
func (d *DFS) AddNode(nodeID, rack string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nodes = append(d.nodes, nodeID)
	d.racks[nodeID] = rack
}

// SetNodeDown marks a datanode offline (true) or online (false); reads fall
// over to other replicas.
func (d *DFS) SetNodeDown(nodeID string, downNow bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down[nodeID] != downNow {
		d.down[nodeID] = downNow
		if downNow {
			d.downs++
		} else {
			d.downs--
		}
	}
}

// Scheme implements Store.
func (d *DFS) Scheme() string { return d.scheme }

// Device implements Store.
func (d *DFS) Device() sim.DeviceClass { return d.device }

// placeReplicas picks replica nodes for one block: round-robin primary,
// then nodes on other racks first (rack-aware placement), skipping downed
// nodes. Caller holds d.mu.
func (d *DFS) placeReplicas() ([]string, error) {
	up := make([]string, 0, len(d.nodes))
	for _, n := range d.nodes {
		if !d.down[n] {
			up = append(up, n)
		}
	}
	if len(up) == 0 {
		return nil, fmt.Errorf("storage: dfs %q has no live datanodes", d.scheme)
	}
	primary := up[d.placeCur%len(up)]
	d.placeCur++
	chosen := []string{primary}
	usedRacks := map[string]bool{d.racks[primary]: true}
	used := map[string]bool{primary: true}
	// Prefer distinct racks, then any distinct node.
	for _, preferNewRack := range []bool{true, false} {
		for i := 0; len(chosen) < d.replicas && i < len(up); i++ {
			n := up[(d.placeCur+i)%len(up)]
			if used[n] {
				continue
			}
			if preferNewRack && usedRacks[d.racks[n]] {
				continue
			}
			chosen = append(chosen, n)
			used[n] = true
			usedRacks[d.racks[n]] = true
		}
	}
	return chosen, nil
}

// WriteFile implements Store: the file is chunked into blocks, each placed
// on replica datanodes.
func (d *DFS) WriteFile(ctx context.Context, path string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := &dfsFile{size: int64(len(data))}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += d.blockSize {
		end := min(off+d.blockSize, int64(len(data)))
		reps, err := d.placeReplicas()
		if err != nil {
			return err
		}
		blk := make([]byte, end-off)
		copy(blk, data[off:end])
		f.blocks = append(f.blocks, dfsBlock{data: blk, replicas: reps})
		for _, r := range reps {
			if i, found := slices.BinarySearch(f.holders, r); !found {
				f.holders = slices.Insert(f.holders, i, r)
			}
		}
		if len(data) == 0 {
			break
		}
	}
	d.files[path] = f
	return nil
}

// ReadFile implements Store: each block is read from its first live
// replica; a block with no live replica fails the read with ErrUnavailable.
func (d *DFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	d.mu.RLock()
	f, ok := d.files[path]
	if !ok {
		d.mu.RUnlock()
		return nil, ErrNotFound
	}
	out := make([]byte, 0, f.size)
	for i, blk := range f.blocks {
		if !d.readable(blk) {
			d.mu.RUnlock()
			return nil, fmt.Errorf("%w: %s block %d", ErrUnavailable, path, i)
		}
		out = append(out, blk.data...)
	}
	d.mu.RUnlock()
	charge(ctx, d.model, d.device, int64(len(out)))
	return out, nil
}

// Stat implements Store.
func (d *DFS) Stat(ctx context.Context, path string) (FileInfo, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return FileInfo{}, ErrNotFound
	}
	return FileInfo{Path: path, Size: f.size}, nil
}

// List implements Store.
func (d *DFS) List(ctx context.Context, prefix string) ([]string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for p := range d.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// readable reports whether some replica of blk is up, or it has none.
// Caller holds d.mu.
func (d *DFS) readable(blk dfsBlock) bool {
	for _, r := range blk.replicas {
		if !d.down[r] {
			return true
		}
	}
	return len(blk.replicas) == 0
}

// Locations implements Store: the union of live replica holders across the
// file's blocks, sorted, so the scheduler can prefer data-local leaves. The
// union is kept from the write on; only while some node is down is it
// filtered, into a fresh slice.
func (d *DFS) Locations(path string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, ok := d.files[path]
	if !ok {
		return nil
	}
	if d.downs == 0 {
		return f.holders
	}
	live := make([]string, 0, len(f.holders))
	for _, h := range f.holders {
		if !d.down[h] {
			live = append(live, h)
		}
	}
	return live
}

// ReadRange implements RangeReader: only the blocks overlapping the range
// are touched, charging just the requested bytes. A range inside one block
// is a view of it; one that spans blocks is copied into a fresh buffer.
func (d *DFS) ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error) {
	d.mu.RLock()
	f, ok := d.files[path]
	if !ok {
		d.mu.RUnlock()
		return nil, ErrNotFound
	}
	if off < 0 || length < 0 || off+length > f.size {
		d.mu.RUnlock()
		return nil, fmt.Errorf("storage: range [%d,%d) outside %s of %d bytes", off, off+length, path, f.size)
	}
	var out []byte
	pos := int64(0)
	for i, blk := range f.blocks {
		blkLen := int64(len(blk.data))
		start, end := pos, pos+blkLen
		pos = end
		if end <= off || start >= off+length {
			continue
		}
		if !d.readable(blk) {
			d.mu.RUnlock()
			return nil, fmt.Errorf("%w: %s block %d", ErrUnavailable, path, i)
		}
		lo, hi := max(off, start)-start, min(off+length, end)-start
		if hi-lo == length { // the range lies inside this block
			out = blk.data[lo:hi:hi]
			break
		}
		if out == nil {
			out = make([]byte, 0, length)
		}
		out = append(out, blk.data[lo:hi]...)
	}
	d.mu.RUnlock()
	charge(ctx, d.model, d.device, length)
	return out, nil
}
