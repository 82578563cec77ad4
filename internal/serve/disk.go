package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rowcodec"
	"repro/internal/vfs"
)

// diskCache is the cold second tier beneath the in-memory result cache:
// positive entries evicted from the LRU demote here instead of being
// recomputed from scratch on their next hit. Entries are keyed by the
// same (articulation, query, epoch-vector) cache key as the memory tier,
// so a cold hit is provably exact for exactly the same reason a warm one
// is — the key stops matching the moment any source mutates. Rows are
// encoded in the rowcodec wire format (the spill/persistence codec), so
// a result that round-trips through disk is EqualRows-identical to the
// one the executor produced.
//
// Safe for concurrent use: it carries its own mutex, held across both
// the index maps and the file I/O, so the Service can (and must) call it
// OUTSIDE its global mutex — a slow disk then stalls only disk-tier
// traffic, never memory-cache hits or flight registration.
//
// The tier is an optimization, so it fails soft (PR 7): transient I/O
// errors are retried with doubling backoff, persistent ones trip a
// circuit breaker that degrades the tier to instant misses until a
// probe finds the device healthy again — a broken disk slows queries
// back down to execution speed, it never makes them fail.
type diskCache struct {
	mu    sync.Mutex
	fs    vfs.FS
	dir   string
	cap   int
	order []string          // insertion/refresh order, oldest first
	items map[string]string // cache key → file path

	brk     *breaker
	retries int           // I/O retries after the first attempt
	backoff time.Duration // first retry's sleep; doubles per retry
	faults  *obs.Counter  // failed I/O attempts (each retry counts)
}

const (
	diskEntryMagic   = "ONIONRC1"
	diskEntryPrefix  = "res-"
	diskEntrySuffix  = ".bin"
	defaultDiskCache = 4096

	diskRetries      = 2
	diskRetryBackoff = 2 * time.Millisecond
)

// newDiskCacheFS opens (creating if needed) the disk tier's directory
// over an injectable filesystem and clears leftover entries: cache keys
// embed the process-unique engine id, so entries from a previous
// process can never hit again. The tier records its faults and breaker
// state in m.
func newDiskCacheFS(dir string, capacity int, fsys vfs.FS, m *metrics) (*diskCache, error) {
	if capacity <= 0 {
		capacity = defaultDiskCache
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk cache: %w", err)
	}
	stale, err := fsys.Glob(filepath.Join(dir, diskEntryPrefix+"*"+diskEntrySuffix))
	if err != nil {
		return nil, fmt.Errorf("serve: disk cache: %w", err)
	}
	for _, f := range stale {
		fsys.Remove(f)
	}
	return &diskCache{
		fs: fsys, dir: dir, cap: capacity, items: make(map[string]string),
		brk: newBreaker(m), faults: m.diskFaults, retries: diskRetries, backoff: diskRetryBackoff,
	}, nil
}

// retryIO runs one disk operation with retry-plus-doubling-backoff for
// transient errors, counting every failed attempt in faults. It returns
// the last error once the retries are spent.
func (c *diskCache) retryIO(op func() error) error {
	wait := c.backoff
	var err error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(wait)
			wait *= 2
		}
		if err = op(); err == nil {
			return nil
		}
		c.faults.Inc()
	}
	return err
}

// path derives an entry's file name from its cache key. Keys are binary,
// so the name is a digest; the entry stores the full key and get
// verifies it, so even a digest collision yields a miss, never a wrong
// result.
func (c *diskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, fmt.Sprintf("%s%x%s", diskEntryPrefix, sum[:16], diskEntrySuffix))
}

// put demotes one result to disk, evicting the oldest entries past the
// capacity. A put on an existing key rewrites the file and refreshes the
// entry's age — a hot, repeatedly re-demoted entry must not be evicted
// as "oldest" ahead of genuinely cold entries. Returns false when the
// entry could not be written (a full disk must not fail the query path —
// the entry is simply not cached).
func (c *diskCache) put(key string, res *query.Result) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.brk.allow() {
		// Breaker open: the tier is degraded to memory-only. Not caching
		// is always safe — the entry just recomputes on its next miss.
		return false
	}
	buf := make([]byte, 0, 256+len(res.Rows)*32)
	buf = append(buf, diskEntryMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(res.Vars)))
	for _, v := range res.Vars {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		buf = rowcodec.AppendRow(buf, row)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	path := c.path(key)
	//lint:onion-ignore c.mu is the disk tier's own lock, documented to span its I/O; it serialises only disk-tier traffic and is never held with the Service mutex
	if err := c.retryIO(func() error { return c.fs.WriteFile(path, buf, 0o644) }); err != nil {
		c.brk.record(err)
		// A failed write may have torn the file; remove it (best effort)
		// so a later read cannot see the fragment. The CRC would catch
		// it anyway — this just saves the read.
		//lint:onion-ignore disk tier's own lock (see put's write above)
		c.fs.Remove(path)
		return false
	}
	c.brk.record(nil)
	if _, dup := c.items[key]; dup {
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.order = append(c.order, key)
		return true
	}
	c.items[key] = path
	c.order = append(c.order, key)
	for len(c.order) > c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		if p, ok := c.items[oldest]; ok {
			//lint:onion-ignore disk tier's own lock (see put's write above)
			c.fs.Remove(p)
			delete(c.items, oldest)
		}
	}
	return true
}

// get loads a demoted result; a missing, corrupt or key-mismatched
// entry is a miss (and is dropped). An I/O failure is also just a miss
// — the caller falls through to execution — but it feeds the breaker
// rather than dropping the entry: the file may be intact once the
// device recovers. The decoded rows carry no execution stats — the work
// they represent was done by the execution that populated the entry.
func (c *diskCache) get(key string) (*query.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	path, ok := c.items[key]
	if !ok {
		return nil, false
	}
	if !c.brk.allow() {
		return nil, false
	}
	var data []byte
	//lint:onion-ignore c.mu is the disk tier's own lock, documented to span its I/O; a slow disk stalls only disk-tier traffic, never the Service mutex
	readErr := c.retryIO(func() error {
		var err error
		data, err = c.fs.ReadFile(path)
		return err
	})
	if readErr != nil {
		c.brk.record(readErr)
		return nil, false
	}
	c.brk.record(nil)
	res, err := decodeDiskEntry(data, key)
	if err != nil {
		// Corruption, not device trouble: drop the entry (the next miss
		// recomputes and re-demotes it) and leave the breaker alone.
		//lint:onion-ignore disk tier's own lock (see get's read above)
		c.fs.Remove(path)
		delete(c.items, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		return nil, false
	}
	return res, true
}

func decodeDiskEntry(data []byte, wantKey string) (*query.Result, error) {
	if len(data) < len(diskEntryMagic)+4 || string(data[:len(diskEntryMagic)]) != diskEntryMagic {
		return nil, errors.New("bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return nil, errors.New("checksum mismatch")
	}
	b := body[len(diskEntryMagic):]
	readStr := func() (string, error) {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return "", errors.New("bad string frame")
		}
		out := string(b[n : n+int(l)])
		b = b[n+int(l):]
		return out, nil
	}
	key, err := readStr()
	if err != nil {
		return nil, err
	}
	if key != wantKey {
		return nil, errors.New("key mismatch")
	}
	nvars, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("bad var count")
	}
	b = b[n:]
	res := &query.Result{Vars: make([]string, 0, nvars)}
	for i := uint64(0); i < nvars; i++ {
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		res.Vars = append(res.Vars, v)
	}
	nrows, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("bad row count")
	}
	b = b[n:]
	res.Rows = make([][]kb.Value, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		row := make([]kb.Value, len(res.Vars))
		for j := range row {
			v, used, err := rowcodec.DecodeValue(b)
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			row[j] = v
			b = b[used:]
		}
		res.Rows = append(res.Rows, row)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(b))
	}
	return res, nil
}
