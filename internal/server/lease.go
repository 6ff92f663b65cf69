package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// Lease-based job ownership. In a multi-node deployment every broker
// shares one Store; a job may be served by exactly one node at a time,
// and that node proves its claim with a lease record kept next to the
// job's snapshot. The protocol:
//
//   - Acquire: a node takes an absent lease (epoch 1), or STEALS an
//     expired one at epoch+1. An unexpired lease held by another node
//     cannot be taken — the holder is presumed alive until it misses
//     its renewals.
//   - Renew: the holder extends its expiry without changing the epoch.
//     Renewal fails the moment another node has stolen the lease, which
//     is how a zombie owner learns it lost the job.
//   - Fencing: every store write an owner performs carries its (owner,
//     epoch) claim; writes whose claim no longer matches the lease on
//     disk are rejected. The epoch is monotonic across steals, so a
//     resurrected owner can never un-happen a successor's progress.
//
// All lease mutations for one job serialize through an O_EXCL lock
// file (`<id>.lease.lock`), and the record itself is replaced with a
// temp-file + rename, so concurrent brokers racing Acquire/Renew/Steal
// observe each other's writes atomically — the same crash-safety idiom
// fileStore.Save uses for snapshots. FencedSave runs the snapshot
// rename INSIDE that lock, making snapshot fencing atomic with respect
// to a concurrent steal, not merely check-then-write.

// Lease is one job's ownership record.
type Lease struct {
	Job   string `json:"job"`
	Owner string `json:"owner"`
	// Epoch counts ownership generations: 1 at first acquisition,
	// incremented every time an expired lease is stolen. It is the
	// fencing token carried by every store write.
	Epoch int64 `json:"epoch"`
	// ExpiryUnixNano is the wall-clock instant the lease lapses unless
	// renewed first.
	ExpiryUnixNano int64 `json:"expiry_unix_nano"`
}

// Expiry returns the expiry instant.
func (l Lease) Expiry() time.Time { return time.Unix(0, l.ExpiryUnixNano) }

// Expired reports whether the lease has lapsed at now, with grace
// added to absorb clock skew between brokers: a lease is only treated
// as dead once it is grace past its stated expiry.
func (l Lease) Expired(now time.Time, grace time.Duration) bool {
	return now.After(l.Expiry().Add(grace))
}

// Errors of the lease protocol. ErrLeaseHeld means another node holds
// an unexpired lease (the caller should proxy or retry after the
// holder's expiry); ErrLeaseLost means the caller's claim is stale —
// its lease was stolen at a higher epoch — and it must stop serving
// and writing the job immediately.
var (
	ErrLeaseHeld = errors.New("server: lease held by another node")
	ErrLeaseLost = errors.New("server: lease lost (stolen at a higher epoch)")
)

// LeaseStats is the point-in-time view of the lease protocol's activity.
type LeaseStats struct {
	// Acquired counts fresh grants and renewals-via-acquire.
	Acquired uint64 `json:"acquired"`
	// Stolen counts expired leases taken over at a higher epoch.
	Stolen uint64 `json:"stolen"`
	// Fenced counts writes rejected because the writer's claim was
	// stale — each one is a zombie owner stopped from corrupting state.
	Fenced uint64 `json:"fenced"`
	// Corrupt counts unreadable lease records tolerated as absent.
	Corrupt uint64 `json:"corrupt"`
	// Swept counts lease/lock files garbage-collected by SweepLeases.
	Swept uint64 `json:"swept"`
}

// leaseGrace is the clock-skew allowance baked into expiry decisions:
// a lease only becomes stealable this long past its stated expiry, so
// two brokers whose clocks disagree by less than this never both
// believe they hold the same job.
const leaseGrace = 500 * time.Millisecond

// lockStaleAfter is how old (by file mtime, real wall clock) a
// `.lease.lock` file must be before another writer may break it — the
// recovery path for a broker that crashed between taking the lock and
// removing it.
const lockStaleAfter = 5 * time.Second

func (f *fileStore) leasePath(id string) string { return f.path(id) + leaseSuffix }
func (f *fileStore) lockPath(id string) string  { return f.path(id) + leaseLockSuffix }

const (
	leaseSuffix     = ".lease"
	leaseLockSuffix = ".lease.lock"
)

// now returns the store's clock — the Now field when set (tests inject
// a fake clock through it), wall time otherwise.
func (f *fileStore) now() time.Time {
	if f.Now != nil {
		return f.Now()
	}
	return time.Now()
}

// withLeaseLock runs fn while holding id's lease lock file. The lock
// is the cross-process serialization point for every lease mutation
// and fenced write; a stale lock (older than lockStaleAfter) left by a
// crashed writer is broken.
func (f *fileStore) withLeaseLock(id string, fn func() error) error {
	lock := f.lockPath(id)
	for attempt := 0; ; attempt++ {
		h, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			h.Close()
			break
		}
		if !errors.Is(err, os.ErrExist) {
			return fmt.Errorf("server: lease lock %s: %w", id, err)
		}
		if st, serr := os.Stat(lock); serr == nil && time.Since(st.ModTime()) > lockStaleAfter {
			// A crashed writer's leftover: break it and retry. The
			// remove may race another breaker; both retries converge on
			// one of them holding a fresh lock.
			os.Remove(lock)
			continue
		}
		if attempt >= 50 {
			return fmt.Errorf("server: lease lock %s: contended", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	defer os.Remove(lock)
	return fn()
}

// loadLeaseLocked reads id's lease record. Caller holds the lease
// lock (or accepts a point-in-time read). Corrupt records are treated
// as absent: they are a crashed writer's debris, and treating them as
// fatal would strand the job forever.
func (f *fileStore) loadLeaseLocked(id string) (*Lease, error) {
	data, err := os.ReadFile(f.leasePath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: lease load %s: %w", id, err)
	}
	var l Lease
	if jerr := json.Unmarshal(data, &l); jerr != nil || l.Owner == "" {
		f.leaseCorrupt.Add(1)
		return nil, nil
	}
	return &l, nil
}

// writeLeaseLocked atomically replaces id's lease record. Caller
// holds the lease lock.
func (f *fileStore) writeLeaseLocked(id string, l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("server: lease save %s: %w", id, err)
	}
	tmp, err := os.CreateTemp(f.dir, "."+id+"-lease-*.tmp")
	if err != nil {
		return fmt.Errorf("server: lease save %s: %w", id, err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: lease save %s: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), f.leasePath(id)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: lease save %s: %w", id, err)
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("server: lease save %s: %w", id, err)
	}
	return nil
}

// AcquireLease implements Store.
func (f *fileStore) AcquireLease(id, owner string, ttl time.Duration) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	var out Lease
	err := f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		now := f.now()
		next := Lease{Job: id, Owner: owner, Epoch: 1, ExpiryUnixNano: now.Add(ttl).UnixNano()}
		switch {
		case cur == nil:
			// fresh grant at epoch 1
		case cur.Owner == owner:
			next.Epoch = cur.Epoch // renewal-via-acquire keeps the epoch
		case cur.Expired(now, leaseGrace):
			next.Epoch = cur.Epoch + 1 // steal
			f.leaseStolen.Add(1)
		default:
			return fmt.Errorf("%w: %s holds %s until %s",
				ErrLeaseHeld, cur.Owner, id, cur.Expiry().Format(time.RFC3339Nano))
		}
		if err := f.writeLeaseLocked(id, next); err != nil {
			return err
		}
		out = next
		return nil
	})
	if err == nil {
		f.leaseAcquired.Add(1)
	}
	return out, err
}

// RenewLease implements Store. Unlike AcquireLease it demands an
// exact (owner, epoch) match: a zombie that lost its lease must learn
// so, not silently re-acquire at a new epoch.
func (f *fileStore) RenewLease(id, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	if err := checkID(id); err != nil {
		return Lease{}, err
	}
	var out Lease
	err := f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if cur == nil || cur.Owner != owner || cur.Epoch != epoch {
			return leaseLostErr(id, owner, epoch, cur)
		}
		next := *cur
		next.ExpiryUnixNano = f.now().Add(ttl).UnixNano()
		if err := f.writeLeaseLocked(id, next); err != nil {
			return err
		}
		out = next
		return nil
	})
	return out, err
}

// ReleaseLease implements Store.
func (f *fileStore) ReleaseLease(id, owner string, epoch int64) error {
	if err := checkID(id); err != nil {
		return err
	}
	return f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if cur == nil || cur.Owner != owner || cur.Epoch != epoch {
			return leaseLostErr(id, owner, epoch, cur)
		}
		if err := os.Remove(f.leasePath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: lease release %s: %w", id, err)
		}
		return syncDir(f.dir)
	})
}

// LoadLease implements Store. It reads without the lock — a
// point-in-time view is all routing decisions need.
func (f *fileStore) LoadLease(id string) (*Lease, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	return f.loadLeaseLocked(id)
}

// CheckLease implements Store.
func (f *fileStore) CheckLease(id, owner string, epoch int64) error {
	cur, err := f.LoadLease(id)
	if err != nil {
		return err
	}
	if cur == nil || cur.Owner != owner || cur.Epoch != epoch {
		f.leaseFenced.Add(1)
		return leaseLostErr(id, owner, epoch, cur)
	}
	return nil
}

// FencedSave implements Store: the fencing check and the snapshot
// rename happen under the same lease lock a steal must take, so the
// outcome is always one of {old snapshot + old lease, old snapshot +
// new lease, new snapshot + old lease} — never a stale owner's bytes
// landing after a successor's.
func (f *fileStore) FencedSave(id string, data []byte, owner string, epoch int64) error {
	if err := checkID(id); err != nil {
		return err
	}
	return f.withLeaseLock(id, func() error {
		cur, err := f.loadLeaseLocked(id)
		if err != nil {
			return err
		}
		if cur == nil || cur.Owner != owner || cur.Epoch != epoch {
			f.leaseFenced.Add(1)
			return leaseLostErr(id, owner, epoch, cur)
		}
		return f.Save(id, data)
	})
}

// leaseLostErr builds the ErrLeaseLost detail line.
func leaseLostErr(id, owner string, epoch int64, cur *Lease) error {
	if cur == nil {
		return fmt.Errorf("%w: %s claims %s@%d but no lease exists", ErrLeaseLost, owner, id, epoch)
	}
	return fmt.Errorf("%w: %s claims %s@%d but %s holds epoch %d",
		ErrLeaseLost, owner, id, epoch, cur.Owner, cur.Epoch)
}

// SweepLeases implements Store.
func (f *fileStore) SweepLeases() (int, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return 0, fmt.Errorf("server: lease sweep: %w", err)
	}
	removed := 0
	now := f.now()
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".json"+leaseLockSuffix):
			// A writer's lock: break it only when stale (mtime is real
			// wall time — a crashed process stops touching its lock).
			if st, err := e.Info(); err == nil && time.Since(st.ModTime()) > lockStaleAfter {
				if os.Remove(f.dir+string(os.PathSeparator)+name) == nil {
					removed++
				}
			}
		case strings.HasSuffix(name, ".json"+leaseSuffix):
			id := strings.TrimSuffix(name, ".json"+leaseSuffix)
			if checkID(id) != nil {
				continue
			}
			l, err := f.loadLeaseLocked(id)
			if err != nil || l == nil {
				continue
			}
			if !l.Expired(now, leaseGrace) {
				continue
			}
			if _, err := os.Stat(f.path(id)); !errors.Is(err, os.ErrNotExist) {
				continue // job still exists; its lease is takeover state, not garbage
			}
			// Expired lease of a deleted job: pure debris.
			err = f.withLeaseLock(id, func() error {
				if cur, _ := f.loadLeaseLocked(id); cur == nil || !cur.Expired(f.now(), leaseGrace) {
					return nil
				}
				return os.Remove(f.leasePath(id))
			})
			if err == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		f.leaseSwept.Add(uint64(removed))
		if err := syncDir(f.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// LeaseStats implements Store.
func (f *fileStore) LeaseStats() LeaseStats {
	return LeaseStats{
		Acquired: f.leaseAcquired.Load(),
		Stolen:   f.leaseStolen.Load(),
		Fenced:   f.leaseFenced.Load(),
		Corrupt:  f.leaseCorrupt.Load(),
		Swept:    f.leaseSwept.Load(),
	}
}

// leaseCounters live on fileStore (see store.go) but are declared here
// with the rest of the protocol for locality.
type leaseCounters struct {
	leaseAcquired atomic.Uint64
	leaseStolen   atomic.Uint64
	leaseFenced   atomic.Uint64
	leaseCorrupt  atomic.Uint64
	leaseSwept    atomic.Uint64
}
