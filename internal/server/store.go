package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Store is the broker's durable state: every call the broker makes on
// it. WALStore is the implementation; the interface exists so a test
// or a benchmark can wrap it (fault injection, timing).
//
// Snapshot writes must be atomic: a crash mid-save leaves either the
// previous snapshot or the new one, never a torn file. Next to each
// snapshot the store keeps the job's round WAL (see RoundWAL) and, in
// a multi-node deployment, the job's ownership lease (see lease.go).
type Store interface {
	// Save durably stores the snapshot bytes under id, replacing any
	// previous snapshot of that id.
	Save(id string, data []byte) error
	// Load returns the snapshot stored under id.
	Load(id string) ([]byte, error)
	// Delete removes id's snapshot, WAL segment, and lease record;
	// deleting a missing id is not an error.
	Delete(id string) error
	// List returns the stored ids in stable order.
	List() ([]string, error)

	RoundWAL

	// AcquireLease acquires or renews id's lease for owner with the
	// given ttl: granted fresh at epoch 1, extended in place when owner
	// already holds it, stolen at epoch+1 when the current lease is
	// expired (past its grace). An unexpired foreign lease returns
	// ErrLeaseHeld.
	AcquireLease(id, owner string, ttl time.Duration) (Lease, error)

	// RenewLease extends the expiry of a lease owner holds at exactly
	// the given epoch. Any mismatch — stolen, released, missing —
	// returns ErrLeaseLost.
	RenewLease(id, owner string, epoch int64, ttl time.Duration) (Lease, error)

	// ReleaseLease removes id's lease if owner holds it at epoch
	// (graceful shutdown / handoff). A mismatched or missing lease
	// returns ErrLeaseLost; the job itself is untouched either way.
	ReleaseLease(id, owner string, epoch int64) error

	// LoadLease returns id's current lease, or nil when none exists. A
	// corrupt record (a crashed writer's leftovers) is treated as
	// absent and counted in LeaseStats.Corrupt rather than bricking
	// the job.
	LoadLease(id string) (*Lease, error)

	// CheckLease is the fencing read: nil iff id's lease is held by
	// exactly (owner, epoch); ErrLeaseLost otherwise.
	CheckLease(id, owner string, epoch int64) error

	// FencedSave writes a snapshot only while (owner, epoch) still
	// holds id's lease, atomically with respect to concurrent lease
	// mutations — a zombie owner's snapshot can never clobber its
	// successor's.
	FencedSave(id string, data []byte, owner string, epoch int64) error

	// ResetWALFenced is ResetWAL with the same fencing as FencedSave,
	// and with the owner's epoch stamped into the segment header so
	// recovery can detect segments written by a later ownership
	// generation.
	ResetWALFenced(id string, base int, owner string, epoch int64) error

	// SweepLeases garbage-collects lease debris: expired leases whose
	// job snapshot no longer exists, and stale lock files left by
	// crashed writers. It returns the number of files removed.
	SweepLeases() (int, error)

	// LeaseStats reports the protocol counters for healthz/metrics.
	LeaseStats() LeaseStats
}

// fileStore is WALStore's snapshot-and-lease half: one `<id>.json`
// snapshot per job, written via a temp file and os.Rename so readers
// and crash recovery never observe a partial snapshot, plus a
// `<id>.json.lease` ownership record next to each snapshot.
type fileStore struct {
	dir string

	// Now, when set, replaces wall time in every lease expiry decision
	// — the injection point the clock-skew and failover tests use. Set
	// it before the store is shared; nil means time.Now.
	Now func() time.Time

	leaseCounters
}

// Dir returns the backing directory.
func (f *fileStore) Dir() string { return f.dir }

// checkID rejects ids that could escape the directory.
func checkID(id string) error {
	if id == "" {
		return errors.New("server: empty snapshot id")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("server: snapshot id %q contains %q", id, r)
		}
	}
	return nil
}

func (f *fileStore) path(id string) string {
	return filepath.Join(f.dir, id+".json")
}

// Save implements Store with write-to-temp + atomic rename.
func (f *fileStore) Save(id string, data []byte) error {
	if err := checkID(id); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(f.dir, "."+id+"-*.tmp")
	if err != nil {
		return fmt.Errorf("server: save %s: %w", id, err)
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: save %s: %w", id, err)
	}
	if err := os.Rename(tmp.Name(), f.path(id)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: save %s: %w", id, err)
	}
	// The temp file's CONTENT is now durable (tmp.Sync above), but the
	// rename lives in the parent directory's entries: without syncing
	// the directory a power loss can forget the rename and resurface
	// the previous snapshot — or nothing. fsync the directory so the
	// new snapshot survives the plug being pulled.
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("server: save %s: %w", id, err)
	}
	return nil
}

// syncDir fsyncs a directory's entry table.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return errors.Join(serr, cerr)
}

// Load implements Store.
func (f *fileStore) Load(id string) ([]byte, error) {
	if err := checkID(id); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.path(id))
	if err != nil {
		return nil, fmt.Errorf("server: load %s: %w", id, err)
	}
	return data, nil
}

// List implements Store. Only entries that look like snapshots this
// store could have written survive the listing: foreign and partial
// files — WAL segments (`*.wal`), a leftover `*.tmp` from a crashed
// atomic rename, segment reset or lease write, lease records and lock
// files (`*.lease`, `*.lease.lock`, orphaned or not), editor
// droppings, a directory someone created in the state dir, a name
// that would never pass checkID — are skipped rather than surfaced as
// job ids that LoadAll would then fail to load.
func (f *fileStore) List() ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, fmt.Errorf("server: list snapshots: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if checkID(id) != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}
