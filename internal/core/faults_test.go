package core

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fixtures"
	"repro/internal/kb"
	"repro/internal/vfs"
)

// TestJournalFaultVetoesInsert scripts an ENOSPC against a whole durable
// system (OpenDirFS + vfs.Faulty): the journal's append-before-insert
// contract must veto the in-memory insert, AddFacts must report exactly
// the facts that landed, queries must keep answering from RAM, and once
// the device recovers the same mutation goes through and survives a
// restart.
func TestJournalFaultVetoesInsert(t *testing.T) {
	root := t.TempDir()
	fsys := vfs.NewFaulty(vfs.OS{})
	s := paperSystem(t)
	if _, err := s.OpenDirFS(root, fsys); err != nil {
		t.Fatal(err)
	}
	before, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	beforeLen := mustKB(t, s, "carrier").Len()

	fsys.Inject(vfs.Rule{Op: vfs.OpWrite, PathSubstr: "log", Times: 1})
	facts := []kb.Fact{
		{Subject: "FaultCar", Predicate: "InstanceOf", Object: kb.Term("PassengerCar")},
		{Subject: "FaultCar", Predicate: "Price", Object: kb.Number(777)},
	}
	added, err := s.AddFacts("carrier", facts)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("AddFacts err = %v, want ENOSPC", err)
	}
	if added != 0 {
		t.Fatalf("added = %d on a first-fact journal failure, want 0", added)
	}
	if got := mustKB(t, s, "carrier").Len(); got != beforeLen {
		t.Fatalf("store grew to %d despite the journal veto, want %d", got, beforeLen)
	}
	// Disk trouble must not take down the query path: the same query
	// still answers, from RAM, with unchanged rows.
	after, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatalf("query after journal fault: %v", err)
	}
	if !after.EqualRows(before) {
		t.Fatal("rows changed after a vetoed insert")
	}

	// The device recovers; the mutation lands and survives a restart.
	if added, err := s.AddFacts("carrier", facts); err != nil || added != 2 {
		t.Fatalf("AddFacts after fault cleared = %d, %v; want 2, nil", added, err)
	}
	s2, _ := restartedPaperSystem(t, root)
	if got, want := mustKB(t, s2, "carrier").Len(), beforeLen+2; got != want {
		t.Fatalf("restart recovered %d carrier facts, want %d", got, want)
	}
}

// TestOpenDirFaultRebinds: OpenDirFS replaces each recovered source's
// store as it goes, so a failure part-way (ENOSPC on factory, after
// carrier's store was replaced) must still leave every engine reading
// the registry's stores — a fact added to carrier's new store shows up
// in the next query.
func TestOpenDirFaultRebinds(t *testing.T) {
	root := t.TempDir()
	restartedPaperSystem(t, root) // leaves disk state for both sources
	s := paperSystem(t)
	before, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	fsys := vfs.NewFaulty(vfs.OS{})
	fsys.Inject(vfs.Rule{Op: vfs.OpAny, PathSubstr: "factory"})
	if _, err := s.OpenDirFS(root, fsys); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("OpenDirFS err = %v, want ENOSPC", err)
	}
	if _, err := s.AddFacts("carrier", []kb.Fact{
		{Subject: "NewCar", Predicate: "InstanceOf", Object: kb.Term("PassengerCar")},
		{Subject: "NewCar", Predicate: "Price", Object: kb.Number(2500)},
	}); err != nil {
		t.Fatal(err)
	}
	after, err := s.Query(fixtures.ArtName, vehiclePriceQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows)+1 {
		t.Fatalf("rows = %d after adding a vehicle, want %d: the engine reads a replaced store", len(after.Rows), len(before.Rows)+1)
	}
}

// TestOpenDirFaultDetachesJournals: an OpenDirFS that fails after
// recovering carrier (ENOSPC on every factory path) leaves persistence
// closed. Carrier's recovered store must not keep journaling to a handle
// the System does not hold — its on-disk files stay as they were when
// facts are added — and the next open, on a healthy disk, recovers and
// journals as usual.
func TestOpenDirFaultDetachesJournals(t *testing.T) {
	root := t.TempDir()
	restartedPaperSystem(t, root) // leaves disk state for both sources
	carrierBytes := func() int64 {
		var n int64
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.Contains(path, "carrier") {
				info, ierr := d.Info()
				if ierr == nil {
					n += info.Size()
				}
			}
			return nil
		})
		return n
	}
	s := paperSystem(t)
	fsys := vfs.NewFaulty(vfs.OS{})
	fsys.Inject(vfs.Rule{Op: vfs.OpAny, PathSubstr: "factory"})
	if _, err := s.OpenDirFS(root, fsys); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("OpenDirFS err = %v, want ENOSPC", err)
	}
	if got := s.PersistRoot(); got != "" {
		t.Fatalf("PersistRoot = %q after a failed open, want none", got)
	}
	before := carrierBytes()
	if before == 0 {
		t.Fatalf("no carrier state on disk")
	}
	if _, err := s.AddFacts("carrier", []kb.Fact{
		{Subject: "NewCar", Predicate: "InstanceOf", Object: kb.Term("PassengerCar")},
		{Subject: "NewCar", Predicate: "Price", Object: kb.Number(2500)},
	}); err != nil {
		t.Fatal(err)
	}
	if after := carrierBytes(); after != before {
		t.Fatalf("carrier's files grew %d → %d B behind an untracked handle", before, after)
	}
	if _, err := s.OpenDir(root); err != nil {
		t.Fatalf("retry on a healthy disk: %v", err)
	}
	if _, err := s.AddFacts("carrier", []kb.Fact{
		{Subject: "OtherCar", Predicate: "InstanceOf", Object: kb.Term("PassengerCar")},
	}); err != nil {
		t.Fatal(err)
	}
	if carrierBytes() <= before {
		t.Fatalf("carrier does not journal after the retried open")
	}
}
