package cluster

import (
	"errors"

	"repro/internal/auth"
	"repro/internal/metrics"
)

// ErrQueryTooLarge is returned for a statement longer than maxQueryBytes.
var ErrQueryTooLarge = errors.New("cluster: query too large")

// maxQueryBytes caps a statement's text. The master checks it on every
// submission, before the entry guard or the parser sees the text.
const maxQueryBytes = 1 << 20

// EntryGuard is the system's entry point (paper §III-C): it authenticates
// the caller and enforces quotas before the job manager sees the query
// ("capability protection to avoid malicious attacks").
type EntryGuard struct {
	Authority *auth.Authority
	Quotas    *auth.Quotas

	Admitted metrics.Counter
	Rejected metrics.Counter
}

// Admit validates a submission. On success it returns the job credential
// and a release function that must be called when the query finishes.
func (g *EntryGuard) Admit(token string) (auth.Credential, func(), error) {
	cred, err := g.Authority.Authenticate(token)
	if err != nil {
		g.Rejected.Inc()
		return auth.Credential{}, nil, err
	}
	if g.Quotas != nil {
		if err := g.Quotas.Acquire(cred.User); err != nil {
			g.Rejected.Inc()
			return auth.Credential{}, nil, err
		}
	}
	g.Admitted.Inc()
	release := func() {
		if g.Quotas != nil {
			g.Quotas.Release(cred.User)
		}
	}
	return cred, release, nil
}
