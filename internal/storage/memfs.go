package storage

import (
	"context"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// MemFS is an in-memory store. It backs tests and models the log data that
// the paper's light-weight leaf process converts in place on online service
// machines. Reads charge memory-class cost.
type MemFS struct {
	scheme string
	model  *sim.CostModel
	device sim.DeviceClass
	// loc, when set, is the one node reported as the data location of every
	// file — MemFS stands in for a single machine's local state.
	loc []string

	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory store with the given scheme. A nil
// model disables cost charging.
func NewMemFS(scheme string, model *sim.CostModel) *MemFS {
	return &MemFS{scheme: scheme, model: model, device: sim.DeviceMemory, files: make(map[string][]byte)}
}

// SetDevice overrides the charged device class (e.g. DeviceHDD to model a
// local SATA disk).
func (m *MemFS) SetDevice(d sim.DeviceClass) { m.device = d }

// SetNodeID sets the node reported by Locations.
func (m *MemFS) SetNodeID(id string) { m.loc = nodeLocation(id) }

// Scheme implements Store.
func (m *MemFS) Scheme() string { return m.scheme }

// Device implements Store.
func (m *MemFS) Device() sim.DeviceClass { return m.device }

// ReadFile implements Store.
func (m *MemFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.files[path]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	charge(ctx, m.model, m.device, int64(len(data)))
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// WriteFile implements Store.
func (m *MemFS) WriteFile(ctx context.Context, path string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.files[path] = cp
	m.mu.Unlock()
	return nil
}

// Stat implements Store.
func (m *MemFS) Stat(ctx context.Context, path string) (FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[path]
	if !ok {
		return FileInfo{}, ErrNotFound
	}
	return FileInfo{Path: path, Size: int64(len(data))}, nil
}

// List implements Store.
func (m *MemFS) List(ctx context.Context, prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for p := range m.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Locations implements Store.
func (m *MemFS) Locations(string) []string { return m.loc }

// ReadRange implements RangeReader, charging only the bytes read: a view of
// the store's private copy, which WriteFile replaces and never writes into.
func (m *MemFS) ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.files[path]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	out, err := sliceRange(data, off, length)
	if err != nil {
		return nil, err
	}
	charge(ctx, m.model, m.device, length)
	return out, nil
}
