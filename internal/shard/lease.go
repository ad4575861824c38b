package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hmpt/internal/faultfs"
	"hmpt/internal/fsatomic"
)

// leaseSchema names the lease wire format.
const leaseSchema = "hmpt-lease/v2"

// errLeaseLost reports that a lease was reclaimed out from under its
// holder. The holder's response is defined by the package contract:
// stop renewing, finish the cell anyway (idempotent), let the journal's
// last-write-wins publish reconcile.
var errLeaseLost = errors.New("shard: lease lost")

// leaseRecord is the JSON body of one lease generation: one attempt at
// one cell. Human-readable on purpose: a stuck campaign is debugged by
// reading the leases.
type leaseRecord struct {
	Schema   string `json:"schema"`
	Manifest string `json:"manifest"`
	Cell     int    `json:"cell"`
	Gen      int    `json:"gen"`
	Owner    string `json:"owner"`
	Acquired int64  `json:"acquired_unix_nano"`
	Expires  int64  `json:"expires_unix_nano"`
	// Released marks a finished attempt: the generation no longer
	// holds the cell, and the next claim is a fresh one.
	Released bool `json:"released,omitempty"`
	// A released generation with NextEligible set records a failed
	// attempt: Error says why, and the cell may not be claimed again
	// before NextEligible.
	Error        string `json:"error,omitempty"`
	NextEligible int64  `json:"next_eligible_unix_nano,omitempty"`
}

// leaseManager claims, renews and releases the leases of one shard
// directory on behalf of one owner.
//
// Each attempt at a cell is one generation file <cell>.lease.<gen>,
// created exclusively and afterwards written only by its holder.
// Generations are dense and never reused, so the highest one that
// exists is the cell's lease, and creating generation g+1 is the single
// arbiter between any number of racing claimants and reclaimers.
type leaseManager struct {
	fs       faultfs.FS
	dir      string // <shard-dir>/leases
	manifest string
	owner    string
	ttl      time.Duration
	// reclaimed counts this manager's expired-lease takeovers, for the
	// worker's shard report (the package counter aggregates the
	// process).
	reclaimed atomic.Int64
}

func (lm *leaseManager) path(cell, gen int) string {
	return filepath.Join(lm.dir, fmt.Sprintf("%s.lease.%d", cellName(cell), gen))
}

// cellLeases is one read of every generation of a cell.
type cellLeases struct {
	top int // highest generation present; 0 when never claimed
	// live: top is held by a peer's unexpired, unreleased attempt.
	// stale: top is expired or unreadable, so claiming over it is a
	// reclaim.
	live, stale bool
	// failed holds the failed attempts in generation order — the
	// cell's fleet-wide attempt history.
	failed []leaseRecord
}

// scan reads the cell's generations in order until the first absent
// one. Unreadable or foreign records are skipped as history: a torn
// record must never inflate an attempt count into a premature
// quarantine. Filesystem errors surface to the caller, which treats
// them as skips: leases partition work, they do not gate correctness.
func (lm *leaseManager) scan(cell int) (cellLeases, error) {
	var s cellLeases
	now := time.Now().UnixNano()
	for gen := 1; ; gen++ {
		raw, err := lm.fs.ReadFile(lm.path(cell, gen))
		if os.IsNotExist(err) {
			return s, nil
		}
		if err != nil {
			return cellLeases{}, err
		}
		var rec leaseRecord
		valid := json.Unmarshal(raw, &rec) == nil && rec.Schema == leaseSchema &&
			rec.Manifest == lm.manifest && rec.Cell == cell && rec.Gen == gen
		s.top = gen
		// An owner never scans while it holds a lease, so an unreleased
		// generation of its own is one whose release failed to publish.
		s.live = valid && !rec.Released && rec.Owner != lm.owner && now < rec.Expires
		s.stale = !valid || (!rec.Released && now >= rec.Expires)
		if valid && rec.Released && rec.NextEligible != 0 {
			s.failed = append(s.failed, rec)
		}
	}
}

// lease is one held generation.
type lease struct {
	lm   *leaseManager
	rec  leaseRecord
	lost atomic.Bool
}

// claim creates the generation after the scanned top. It returns
// (nil, nil) when the top is held by a live holder, or when a peer
// claimed that generation first — not an error, just not ours. A scan
// that has since gone stale therefore always loses to the peer that
// moved the cell on.
func (lm *leaseManager) claim(cell int, s cellLeases) (*lease, error) {
	if s.live {
		return nil, nil
	}
	now := time.Now()
	l := &lease{lm: lm, rec: leaseRecord{
		Schema:   leaseSchema,
		Manifest: lm.manifest,
		Cell:     cell,
		Gen:      s.top + 1,
		Owner:    lm.owner,
		Acquired: now.UnixNano(),
		Expires:  now.Add(lm.ttl).UnixNano(),
	}}
	raw, err := json.Marshal(l.rec)
	if err != nil {
		return nil, err
	}
	switch err := fsatomic.PublishExclusiveFS(lm.fs, lm.path(cell, l.rec.Gen), raw); {
	case err == nil:
		leasesAcquired.Add(1)
		activeLeases.Add(1)
		if s.stale {
			leasesReclaimed.Add(1)
			lm.reclaimed.Add(1)
		}
		return l, nil
	case os.IsExist(err):
		return nil, nil
	default:
		return nil, err
	}
}

// owned reports whether no later generation exists.
func (l *lease) owned() bool {
	_, err := l.lm.fs.Stat(l.lm.path(l.rec.Cell, l.rec.Gen+1))
	return os.IsNotExist(err)
}

// rewrite publishes rec over this lease's own generation. Only the
// holder ever writes its generation after the claim, so a rewrite can
// never displace a reclaimer, which owns the next one.
func (l *lease) rewrite(rec leaseRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return fsatomic.PublishFS(l.lm.fs, l.lm.path(rec.Cell, rec.Gen), raw)
}

// renew extends the lease by one TTL. A lease found reclaimed reports
// errLeaseLost and marks itself lost; every later renew is a no-op.
func (l *lease) renew() error {
	if l.lost.Load() {
		return errLeaseLost
	}
	if !l.owned() {
		if !l.lost.Swap(true) {
			activeLeases.Add(-1)
			leasesLost.Add(1)
		}
		return errLeaseLost
	}
	l.rec.Expires = time.Now().Add(l.lm.ttl).UnixNano()
	if err := l.rewrite(l.rec); err != nil {
		// A failed renewal is not a lost lease — the record on disk is
		// still ours, just aging toward expiry. The next heartbeat
		// retries.
		return err
	}
	leaseRenewals.Add(1)
	return nil
}

// release ends a successful attempt.
func (l *lease) release() error { return l.end("", 0) }

// fail ends a failed attempt, barring the next one for delay. The
// released generation is the attempt's failure record.
func (l *lease) fail(cellErr error, delay time.Duration) error {
	return l.end(cellErr.Error(), time.Now().Add(delay).UnixNano())
}

// end marks the generation released with the attempt's outcome. The
// file is never deleted: that would let its generation number be
// reused. A reclaimed holder still records its outcome, which is then
// history below the reclaimer's generation.
func (l *lease) end(cellErr string, nextEligible int64) error {
	rec := l.rec
	rec.Released, rec.Error, rec.NextEligible = true, cellErr, nextEligible
	err := l.rewrite(rec)
	if err == nil {
		leasesReleased.Add(1)
	}
	if !l.lost.Swap(true) {
		activeLeases.Add(-1)
	}
	return err
}
