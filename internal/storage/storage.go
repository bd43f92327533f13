// Package storage implements Feisu's common storage layer (paper §III-C):
// a unified data view over heterogeneous storage systems. Every file path
// carries a prefix flag that activates a storage plugin — "/hdfs/..." routes
// to the HDFS-like distributed filesystem, "/ffs/..." to the Fatman-like
// cold archive, and unrecognized prefixes fall through to the local
// filesystem, exactly as the paper describes.
//
// The real production systems (HDFS, Fatman) are not available here, so the
// package ships faithful simulations: hdfssim replicates files across
// simulated datanodes with rack-aware placement, and fatmansim models the
// throttled, high-latency volunteer-resource archive of the Fatman paper.
// All plugins charge simulated I/O costs to the sim.Bill carried by the
// context, which is how the benchmark harness reconstructs cluster-scale
// response times.
//
// ReadFile returns a copy the caller owns; ReadRange, the read of every
// column extent, a read-only view that the in-memory stores serve without a
// copy (RangeReader). Decoders copy what they keep, and every extent's CRC
// is checked, so a write into a view shows up as a checksum failure.
package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// ErrNotFound is returned when a path does not exist in a store.
var ErrNotFound = errors.New("storage: file not found")

// ErrUnavailable is returned when every replica of a file is offline.
var ErrUnavailable = errors.New("storage: no replica available")

// FileInfo describes one stored file.
type FileInfo struct {
	Path string
	Size int64
}

// Store is one storage domain (paper: "each storage system works in an
// independent domain").
type Store interface {
	// Scheme is the path prefix flag without slashes, e.g. "hdfs". The
	// local store's scheme is "".
	Scheme() string
	// ReadFile returns the file contents, charging I/O to the context bill.
	ReadFile(ctx context.Context, path string) ([]byte, error)
	// WriteFile stores the file contents.
	WriteFile(ctx context.Context, path string, data []byte) error
	// Stat returns file metadata.
	Stat(ctx context.Context, path string) (FileInfo, error)
	// List returns the paths under prefix, sorted.
	List(ctx context.Context, prefix string) ([]string, error)
	// Locations returns the IDs of cluster nodes that hold the file's
	// data locally (for locality-aware scheduling); empty means
	// location-free (e.g. memfs). The slice may be the store's own, shared
	// by every caller: read it, never write or append to it.
	Locations(path string) []string
	// Device is the device class charged for reads from this store.
	Device() sim.DeviceClass
}

type billKey struct{}

// WithBill attaches a cost bill to the context; storage plugins charge
// simulated I/O to it.
func WithBill(ctx context.Context, b *sim.Bill) context.Context {
	return context.WithValue(ctx, billKey{}, b)
}

// BillFrom extracts the bill from the context, or nil.
func BillFrom(ctx context.Context) *sim.Bill {
	b, _ := ctx.Value(billKey{}).(*sim.Bill)
	return b
}

func charge(ctx context.Context, m *sim.CostModel, d sim.DeviceClass, n int64) {
	if b := BillFrom(ctx); b != nil && m != nil {
		b.ChargeRead(m, d, n)
	}
}

// Router is the common storage layer: it maps prefixed paths to plugins.
type Router struct {
	mu     sync.RWMutex
	stores map[string]Store
	local  Store
}

// NewRouter returns a router with the given default (local) store.
func NewRouter(local Store) *Router {
	return &Router{stores: make(map[string]Store), local: local}
}

// Register adds a plugin under its scheme. Registering scheme "" replaces
// the local store.
func (r *Router) Register(s Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Scheme() == "" {
		r.local = s
		return
	}
	r.stores[s.Scheme()] = s
}

// Resolve splits a full path into its store and the in-store path. Paths
// look like "/hdfs/path/to/file"; if the first segment is not a registered
// scheme, the local store gets the whole path (paper: "if a prefix string
// can not be recognized, local filesystem is activated by default").
func (r *Router) Resolve(path string) (Store, string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	trimmed := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(trimmed, '/'); i > 0 {
		if s, ok := r.stores[trimmed[:i]]; ok {
			return s, trimmed[i:]
		}
	}
	return r.local, path
}

// Stores returns all registered stores including the local one.
func (r *Router) Stores() []Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Store, 0, len(r.stores)+1)
	if r.local != nil {
		out = append(out, r.local)
	}
	schemes := make([]string, 0, len(r.stores))
	for s := range r.stores {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, s := range schemes {
		out = append(out, r.stores[s])
	}
	return out
}

// ReadFile routes and reads.
func (r *Router) ReadFile(ctx context.Context, path string) ([]byte, error) {
	s, p := r.Resolve(path)
	if s == nil {
		return nil, fmt.Errorf("storage: no store for %q", path)
	}
	return s.ReadFile(ctx, p)
}

// WriteFile routes and writes.
func (r *Router) WriteFile(ctx context.Context, path string, data []byte) error {
	s, p := r.Resolve(path)
	if s == nil {
		return fmt.Errorf("storage: no store for %q", path)
	}
	return s.WriteFile(ctx, p, data)
}

// Stat routes and stats.
func (r *Router) Stat(ctx context.Context, path string) (FileInfo, error) {
	s, p := r.Resolve(path)
	if s == nil {
		return FileInfo{}, fmt.Errorf("storage: no store for %q", path)
	}
	fi, err := s.Stat(ctx, p)
	if err != nil {
		return fi, err
	}
	fi.Path = path
	return fi, nil
}

// Locations routes and returns data-holding node IDs: the store's slice,
// read-only (Store.Locations).
func (r *Router) Locations(path string) []string {
	s, p := r.Resolve(path)
	if s == nil {
		return nil
	}
	return s.Locations(p)
}

// nodeLocation is the location list of a single-machine store: none
// without a node ID, else just that node.
func nodeLocation(id string) []string {
	if id == "" {
		return nil
	}
	return []string{id}
}

// RangeReader is implemented by stores that can serve byte ranges without
// reading the whole file — the capability that makes column-granular reads
// (and thus SmartIndex's I/O savings) real.
//
// ReadRange returns a read-only view of [off, off+length), billed length
// bytes: it may alias the store's copy, so the caller never writes into it,
// and its capacity is length, so an append reallocates instead of writing
// over the next extent. A later write of the file leaves the view as it was.
type RangeReader interface {
	ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error)
}

// ReadRange routes and reads [off, off+length), a read-only view
// (RangeReader). Stores without range support fall back to a full read (and
// are billed for it), which the view slices.
func (r *Router) ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error) {
	s, p := r.Resolve(path)
	if s == nil {
		return nil, fmt.Errorf("storage: no store for %q", path)
	}
	if rr, ok := s.(RangeReader); ok {
		return rr.ReadRange(ctx, p, off, length)
	}
	data, err := s.ReadFile(ctx, p)
	if err != nil {
		return nil, err
	}
	return sliceRange(data, off, length)
}

// sliceRange views [off, off+length) of data, its capacity clipped to length.
func sliceRange(data []byte, off, length int64) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(data)) {
		return nil, fmt.Errorf("storage: range [%d,%d) outside file of %d bytes", off, off+length, len(data))
	}
	return data[off : off+length : off+length], nil
}

// Device returns the device class of the store holding path.
func (r *Router) Device(path string) sim.DeviceClass {
	s, _ := r.Resolve(path)
	if s == nil {
		return sim.DeviceHDD
	}
	return s.Device()
}
