package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// ErrInjectedRead is the error returned by injected storage read failures.
var ErrInjectedRead = errors.New("chaos: injected storage read error")

// WrapStore decorates a store with the plane's storage faults: slow reads,
// read errors, and payload corruption. Writes pass through untouched (a
// corrupted write would poison every later read, which is not replayable
// chaos but permanent data loss). The wrapper serves range reads itself so
// it composes with stores that lack RangeReader.
func (p *Plane) WrapStore(s storage.Store) storage.Store {
	return &chaosStore{inner: s, p: p}
}

type chaosStore struct {
	inner storage.Store
	p     *Plane
}

func (c *chaosStore) Scheme() string                 { return c.inner.Scheme() }
func (c *chaosStore) Device() sim.DeviceClass        { return c.inner.Device() }
func (c *chaosStore) Locations(path string) []string { return c.inner.Locations(path) }

func (c *chaosStore) WriteFile(ctx context.Context, path string, data []byte) error {
	return c.inner.WriteFile(ctx, path, data)
}

func (c *chaosStore) Stat(ctx context.Context, path string) (storage.FileInfo, error) {
	return c.inner.Stat(ctx, path)
}

func (c *chaosStore) List(ctx context.Context, prefix string) ([]string, error) {
	return c.inner.List(ctx, prefix)
}

// site names one fault family's decision stream for one extent (off is -1
// for a whole-file read). A stream per extent makes the k-th read of that
// extent draw the same value on every run; a stream per scheme would hand
// its k-th draw to whichever concurrent task's read arrived k-th, so the
// same seed could land three faults on one partition in one run and spread
// them over three in the next.
func (c *chaosStore) site(family, path string, off int64) string {
	return fmt.Sprintf("storage/%s/%s:%s@%d", schemeSite(c.inner.Scheme()), family, path, off)
}

// readFault draws the slow-read and read-error decisions for one read.
func (c *chaosStore) readFault(ctx context.Context, path string, off int64) error {
	st := c.p.cfg.Storage
	if !st.Enabled() {
		return nil
	}
	if st.SlowReadDelay > 0 && c.p.decide(c.site("slow", path, off), st.SlowRead, "slowread", path) {
		c.p.SlowReads.Inc()
		select {
		case <-time.After(st.SlowReadDelay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if c.p.decide(c.site("err", path, off), st.ReadErr, "readerr", path) {
		c.p.ReadErrs.Inc()
		return fmt.Errorf("%w: %s", ErrInjectedRead, path)
	}
	return nil
}

// maybeCorrupt flips one byte of a copy of data (the store's own buffers
// are never mutated). Detection is downstream: colstore column checksums
// fail the read, and the task is retried.
func (c *chaosStore) maybeCorrupt(path string, off int64, data []byte) []byte {
	st := c.p.cfg.Storage
	if st.Corrupt <= 0 || len(data) == 0 {
		return data
	}
	site := c.site("corrupt", path, off)
	if !c.p.decide(site, st.Corrupt, "corrupt", path) {
		return data
	}
	c.p.Corruptions.Inc()
	out := append([]byte(nil), data...)
	out[c.p.intn(site, len(out))] ^= 0xFF
	return out
}

func (c *chaosStore) ReadFile(ctx context.Context, path string) ([]byte, error) {
	if err := c.readFault(ctx, path, -1); err != nil {
		return nil, err
	}
	data, err := c.inner.ReadFile(ctx, path)
	if err != nil {
		return nil, err
	}
	return c.maybeCorrupt(path, -1, data), nil
}

// ReadRange implements storage.RangeReader, delegating to the inner store's
// range support when present.
func (c *chaosStore) ReadRange(ctx context.Context, path string, off, length int64) ([]byte, error) {
	if err := c.readFault(ctx, path, off); err != nil {
		return nil, err
	}
	var data []byte
	var err error
	if rr, ok := c.inner.(storage.RangeReader); ok {
		data, err = rr.ReadRange(ctx, path, off, length)
	} else {
		data, err = c.inner.ReadFile(ctx, path)
		if err == nil {
			if off < 0 || length < 0 || off+length > int64(len(data)) {
				return nil, fmt.Errorf("chaos: range [%d,%d) outside %s of %d bytes", off, off+length, path, len(data))
			}
			data = append([]byte(nil), data[off:off+length]...)
		}
	}
	if err != nil {
		return nil, err
	}
	return c.maybeCorrupt(path, off, data), nil
}

// schemeSite names the local store's site ("" scheme) readably.
func schemeSite(scheme string) string {
	if scheme == "" {
		return "local"
	}
	return scheme
}
