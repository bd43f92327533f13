package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sim"
)

// LocalFS is the default store: real files under a root directory, charged
// as HDD reads. It models the local filesystems of the online service
// machines that hold log data in the paper.
type LocalFS struct {
	root  string
	model *sim.CostModel
	loc   []string // SetNodeID's node, the location of every file
}

// NewLocalFS returns a store rooted at dir. A nil model disables cost
// charging.
func NewLocalFS(dir string, model *sim.CostModel) *LocalFS {
	return &LocalFS{root: dir, model: model}
}

// SetNodeID sets the node reported by Locations.
func (l *LocalFS) SetNodeID(id string) { l.loc = nodeLocation(id) }

// Scheme implements Store; LocalFS is the fallback store.
func (l *LocalFS) Scheme() string { return "" }

// Device implements Store.
func (l *LocalFS) Device() sim.DeviceClass { return sim.DeviceHDD }

// resolve maps an in-store path to a real path, refusing escapes above the
// root.
func (l *LocalFS) resolve(path string) (string, error) {
	clean := filepath.Clean("/" + path)
	full := filepath.Join(l.root, clean)
	if rel, err := filepath.Rel(l.root, full); err != nil || strings.HasPrefix(rel, "..") {
		return "", errors.New("storage: path escapes root")
	}
	return full, nil
}

// ReadFile implements Store.
func (l *LocalFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	full, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(full)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	charge(ctx, l.model, sim.DeviceHDD, int64(len(data)))
	return data, nil
}

// WriteFile implements Store.
func (l *LocalFS) WriteFile(ctx context.Context, path string, data []byte) error {
	full, err := l.resolve(path)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	return os.WriteFile(full, data, 0o644)
}

// Stat implements Store.
func (l *LocalFS) Stat(ctx context.Context, path string) (FileInfo, error) {
	full, err := l.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := os.Stat(full)
	if errors.Is(err, fs.ErrNotExist) {
		return FileInfo{}, ErrNotFound
	}
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: path, Size: fi.Size()}, nil
}

// List implements Store.
func (l *LocalFS) List(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		full := "/" + filepath.ToSlash(rel)
		if strings.HasPrefix(full, prefix) {
			out = append(out, full)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// Locations implements Store.
func (l *LocalFS) Locations(string) []string { return l.loc }

// ReadRange implements RangeReader via a positional read, charging only the
// bytes read.
func (l *LocalFS) ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error) {
	full, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(full)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil || off < 0 || length < 0 || off+length > fi.Size() {
		return nil, fmt.Errorf("storage: range [%d,%d) outside %s", off, off+length, path)
	}
	out := make([]byte, length)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, length), out); err != nil {
		return nil, fmt.Errorf("storage: range read %s: %w", path, err)
	}
	charge(ctx, l.model, sim.DeviceHDD, length)
	return out, nil
}
