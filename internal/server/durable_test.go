package server

// Crash-recovery and retention tests for durable continuous operation.
// Every scenario compares recovered behaviour against an always-
// resident, never-crashed control system: recovery must reproduce the
// pre-crash InvestigateReport verdicts bit for bit, and an evicted
// minute must answer investigations exactly like a resident one.

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"image"
	"math/big"
	mrand "math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"viewmap/internal/blur"
	"viewmap/internal/core"
	"viewmap/internal/evidence"
	"viewmap/internal/geo"
	"viewmap/internal/reward"
	"viewmap/internal/vd"
	"viewmap/internal/vp"
)

// durKeyOnce caches one RSA key for every durable test; generation
// dominates otherwise.
var (
	durKeyOnce sync.Once
	durKey     *rsa.PrivateKey
)

func durBank(t testing.TB) *reward.Bank {
	t.Helper()
	durKeyOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		durKey = k
	})
	return reward.NewBankFromKey(durKey)
}

// durArea and durSite are the shared test geometry.
var (
	durArea = geo.NewRect(geo.Pt(0, 0), geo.Pt(1500, 1500))
	durSite = geo.RectAround(geo.Pt(750, 750), 250)
)

// uploadMinute synthesizes one minute's population (one trusted VP,
// the rest anonymous, batched) and uploads it to every given system
// identically.
func uploadMinute(t testing.TB, minute int64, n int, seed int64, systems ...*System) {
	t.Helper()
	profiles, err := core.SynthesizeLegitimate(core.SynthConfig{
		N: n, Area: durArea, Minute: minute, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ti := core.MarkTrustedNearest(profiles, durArea.Center())
	trustedWire := profiles[ti].Marshal()
	anon := make([]*vp.Profile, 0, len(profiles)-1)
	for i, p := range profiles {
		if i != ti {
			anon = append(anon, p)
		}
	}
	batch := vp.MarshalBatch(anon)
	for _, sys := range systems {
		if err := sys.UploadTrustedVP("t", trustedWire); err != nil {
			t.Fatal(err)
		}
		res, err := sys.UploadVPBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stored != len(anon) {
			t.Fatalf("minute %d: stored %d of %d", minute, res.Stored, len(anon))
		}
	}
}

// implausibleProfile fabricates a valid profile of the given minute
// whose trajectory moves 1 km per second: the store keeps it, the
// linker quarantines it.
func implausibleProfile(t testing.TB, minute, seed int64) *vp.Profile {
	t.Helper()
	track := make([]geo.Point, vd.SegmentSeconds)
	for i := range track {
		track[i] = geo.Pt(float64(i)*1000, 700)
	}
	p, err := core.FabricateProfile(track, minute, 0, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// durOwner is an evidence-owner fixture: VP, ownership secret, video.
type durOwner struct {
	p      *vp.Profile
	q      vd.Secret
	chunks [][]byte
}

// recordDurOwner records a full plate-bearing minute (tiny frames so
// the cascade work stays negligible).
func recordDurOwner(t testing.TB, minute int64, seed uint64) *durOwner {
	t.Helper()
	q, err := vd.NewSecret()
	if err != nil {
		t.Fatal(err)
	}
	b, err := vp.NewBuilder(vd.DeriveVPID(q), minute*vd.SegmentSeconds, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	cam := &blur.CameraSource{W: 160, H: 90, Seed: seed,
		Plates: []blur.Plate{{Rect: image.Rect(55, 40, 105, 56)}}}
	chunks := make([][]byte, 0, vd.SegmentSeconds)
	for s := 1; s <= vd.SegmentSeconds; s++ {
		chunk := cam.SecondChunk(minute*vd.SegmentSeconds, s)
		if _, err := b.RecordSecond(geo.Pt(float64(s)*10, 5), chunk); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, chunk)
	}
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return &durOwner{p: p, q: q, chunks: chunks}
}

// openDurable opens a durable system in dir with background loops
// effectively disabled so tests drive checkpoints and retention
// deterministically.
func openDurable(t testing.TB, dir string, retention int) *System {
	t.Helper()
	sys, err := OpenDurable(Config{AuthorityToken: "t", Bank: durBank(t)}, DurabilityConfig{
		WALPath:             filepath.Join(dir, "ingest.wal"),
		SnapshotInterval:    0,
		RetentionMinutes:    retention,
		RetentionInterval:   time.Hour,
		ResidentColdMinutes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func controlSystem(t testing.TB) *System {
	t.Helper()
	sys, err := NewSystem(Config{AuthorityToken: "t", Bank: durBank(t)})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// report fetches the full per-VP verdict report for a minute.
func report(t testing.TB, sys *System, minute int64) *FullReport {
	t.Helper()
	r, err := sys.InvestigateReport("t", durSite, minute)
	if err != nil {
		t.Fatalf("minute %d: %v", minute, err)
	}
	return r
}

// TestDurableRecoverBitForBit crashes a system that never snapshotted
// after its bootstrap — everything lives in the WAL — and checks that
// recovery reproduces the VP verdicts bit for bit and resumes the
// evidence lifecycle mid-flight: the accepted delivery stays accepted,
// the partially drawn entitlement keeps its exact balance, and the
// pre-crash spend stays spent.
func TestDurableRecoverBitForBit(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 0)
	uploadMinute(t, 0, 25, 1, sys)
	uploadMinute(t, 1, 25, 2, sys)

	own := recordDurOwner(t, 0, 7)
	if err := sys.UploadVP(own.p.Marshal()); err != nil {
		t.Fatal(err)
	}
	id := own.p.ID()
	if _, err := sys.Evidence().Open(durSite, 0, []vd.VPID{id}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Evidence().Deliver("s-1", id, own.q, own.chunks); err != nil {
		t.Fatal(err)
	}
	// Draw one of the two units and burn it before the crash.
	pub := sys.Bank().PublicKey()
	note, err := reward.NewNote(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := sys.Evidence().Payout("s-2", id, own.q, []*big.Int{note.Blind(pub)})
	if err != nil {
		t.Fatal(err)
	}
	cash, err := note.Unblind(pub, sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Evidence().Redeem(cash); err != nil {
		t.Fatal(err)
	}

	pre0, pre1 := report(t, sys, 0), report(t, sys, 1)
	preLen := sys.Store().Len()
	sys.Abort()

	rec := openDurable(t, dir, 0)
	defer rec.Close()
	if got := rec.Store().Len(); got != preLen {
		t.Fatalf("recovered %d VPs, want %d", got, preLen)
	}
	if got := report(t, rec, 0); !reflect.DeepEqual(got, pre0) {
		t.Fatalf("minute 0 verdicts diverge after recovery:\n got %+v\nwant %+v", got, pre0)
	}
	if got := report(t, rec, 1); !reflect.DeepEqual(got, pre1) {
		t.Fatalf("minute 1 verdicts diverge after recovery")
	}
	// Delivery survived: a second delivery is a replay...
	if _, err := rec.Evidence().Deliver("s-3", id, own.q, own.chunks); !errors.Is(err, evidence.ErrAlreadyDelivered) {
		t.Fatalf("re-delivery after recovery: %v", err)
	}
	// ...the spent unit stays spent...
	if err := rec.Evidence().Redeem(cash); !errors.Is(err, reward.ErrDoubleSpend) {
		t.Fatalf("double spend after recovery: %v", err)
	}
	// ...and exactly one unit of the entitlement remains.
	pub = rec.Bank().PublicKey()
	note2, err := reward.NewNote(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Evidence().Payout("s-4", id, own.q, []*big.Int{note2.Blind(pub)}); err != nil {
		t.Fatalf("drawing the remaining unit: %v", err)
	}
	note3, err := reward.NewNote(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Evidence().Payout("s-5", id, own.q, []*big.Int{note3.Blind(pub)}); err == nil {
		t.Fatal("over-drawing the entitlement succeeded after recovery")
	}
}

// TestDurableRecoverBetweenAppendAndCommit crashes in the window
// ack-after-append covers, once per ingest record type: the record is
// in the log but its profiles never committed. Recovery must replay
// them, through the store's one commit call, to a system report-equal
// to a control that stored them directly. walRecVP is no longer
// written but must still replay from older logs.
func TestDurableRecoverBetweenAppendAndCommit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     byte
		trusted bool
		body    func(ps []*vp.Profile) []byte
	}{
		{"legacy-vp", walRecVP, false, func(ps []*vp.Profile) []byte { return ps[0].Marshal() }},
		{"trusted", walRecVPTrusted, true, func(ps []*vp.Profile) []byte { return ps[0].Marshal() }},
		{"batch", walRecVPBatch, false, vp.MarshalBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sys := openDurable(t, dir, 0)
			control := controlSystem(t)
			uploadMinute(t, 0, 25, 3, sys, control)
			if err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			extra := []*vp.Profile{recordDurOwner(t, 0, 11).p}
			if tc.typ == walRecVPBatch {
				extra = append(extra, recordDurOwner(t, 0, 12).p, recordDurOwner(t, 0, 13).p)
			}
			// Append without committing: the crash hits between the two.
			if _, err := sys.wal.Append(tc.typ, tc.body(extra), nil); err != nil {
				t.Fatal(err)
			}
			for _, p := range extra {
				p.Trusted = tc.trusted
				if err := control.Store().Put(p); err != nil {
					t.Fatal(err)
				}
			}
			sys.Abort()

			rec := openDurable(t, dir, 0)
			defer rec.Close()
			for _, p := range extra {
				got, ok := rec.Store().Get(p.ID())
				if !ok {
					t.Fatal("record appended before the crash is missing after recovery")
				}
				if got.Trusted != tc.trusted {
					t.Fatalf("recovered profile trusted=%v, want %v", got.Trusted, tc.trusted)
				}
			}
			if got, want := report(t, rec, 0), report(t, control, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("verdicts diverge from the control after recovery")
			}
		})
	}
}

// TestStateFileOpensAsSnapshot pins the migration for a full-state
// file (System.SaveTo, the format the removed signal-save mode wrote):
// prefixed with the snapshot header and LSN 0 and saved as PATH.snap,
// it opens under OpenDurable with no WAL file and serves the same
// reports, bank key and evidence board as the system that wrote it.
func TestStateFileOpensAsSnapshot(t *testing.T) {
	src := controlSystem(t)
	uploadMinute(t, 0, 60, 21, src)
	uploadMinute(t, 1, 30, 22, src)
	if sol, err := src.OpenSolicitation("t", durSite, 0, 2); err != nil || sol.Listed == 0 {
		t.Fatalf("OpenSolicitation = (%+v, %v), want a listed board", sol, err)
	}
	var state bytes.Buffer
	if err := src.SaveTo(&state); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	snap := append([]byte("VMAPCKP1"), make([]byte, 8)...) // LSN 0
	snap = append(snap, state.Bytes()...)
	if err := os.WriteFile(filepath.Join(dir, "ingest.wal.snap"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	sys := openDurable(t, dir, 0)
	defer sys.Close()
	if got, want := sys.Store().Len(), src.Store().Len(); got != want {
		t.Fatalf("migrated store holds %d VPs, want %d", got, want)
	}
	for m := int64(0); m < 2; m++ {
		if got, want := report(t, sys, m), report(t, src, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d: migrated reports diverge from the source system", m)
		}
	}
	if sys.Bank().PublicKey().N.Cmp(src.Bank().PublicKey().N) != 0 {
		t.Fatal("migrated bank key differs")
	}
	if got, want := sys.Evidence().Board(), src.Evidence().Board(); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrated board lists %d offers, want %d", len(got), len(want))
	}
}

// TestReplayRemovedDeskRedeem pins the pre-upgrade log format: a WAL
// may still hold walRecRedeem records of the removed legacy reward
// desk (desk byte 0). Replay must burn those units in the shared bank
// ledger — across the replay and across a later snapshot — or a unit
// spent there could be spent again at the evidence desk.
func TestReplayRemovedDeskRedeem(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 0)
	pub := sys.Bank().PublicKey()
	mint := func() *reward.Cash {
		t.Helper()
		note, err := reward.NewNote(pub, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := sys.Bank().SignBlinded(note.Blind(pub))
		if err != nil {
			t.Fatal(err)
		}
		cash, err := note.Unblind(pub, sig)
		if err != nil {
			t.Fatal(err)
		}
		return cash
	}
	spent, fresh := mint(), mint()
	if _, err := sys.wal.Append(walRecRedeem, encodeRedeem(redeemDeskRemoved, spent), nil); err != nil {
		t.Fatal(err)
	}
	sys.Abort()

	rec := openDurable(t, dir, 0)
	if err := rec.Evidence().Redeem(spent); !errors.Is(err, reward.ErrDoubleSpend) {
		t.Fatalf("redeeming a unit burned at the removed desk = %v, want ErrDoubleSpend", err)
	}
	if err := rec.Evidence().Redeem(fresh); err != nil {
		t.Fatalf("an unspent unit must still redeem: %v", err)
	}
	// The burn reaches the snapshot's bank section too.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	again := openDurable(t, dir, 0)
	defer again.Close()
	for _, c := range []*reward.Cash{spent, fresh} {
		if err := again.Evidence().Redeem(c); !errors.Is(err, reward.ErrDoubleSpend) {
			t.Fatalf("after the snapshot, redeeming a spent unit = %v, want ErrDoubleSpend", err)
		}
	}
}

// TestDurableRecoverTornFinalRecord crashes mid-append: the log ends
// in a half-written record. Recovery keeps every acknowledged record,
// drops the torn tail, and the log continues accepting appends.
func TestDurableRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 0)
	control := controlSystem(t)
	uploadMinute(t, 0, 25, 4, sys, control)
	sys.Abort()

	// Simulate the crash tearing a record that was never acknowledged.
	walFile := filepath.Join(dir, "ingest.wal")
	f, err := os.OpenFile(walFile, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0xFF, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec := openDurable(t, dir, 0)
	defer rec.Close()
	if got, want := report(t, rec, 0), report(t, control, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts diverge from the control after torn-tail recovery")
	}
	// The tail was truncated and the sequence continues cleanly.
	own := recordDurOwner(t, 0, 13)
	if err := rec.UploadVP(own.p.Marshal()); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Store().Get(own.p.ID()); !ok {
		t.Fatal("upload after torn-tail recovery did not land")
	}
}

// TestDurableRecoverMidSnapshotRename crashes between writing the
// snapshot temp file and renaming it: recovery must ignore the .tmp
// carcass, load the previous snapshot, and replay the WAL tail.
func TestDurableRecoverMidSnapshotRename(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 0)
	control := controlSystem(t)
	uploadMinute(t, 0, 25, 5, sys, control)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	uploadMinute(t, 1, 25, 6, sys, control)
	// A snapshot was being written when the crash hit: its temp file
	// holds garbage and was never renamed.
	snapTmp := filepath.Join(dir, "ingest.wal.snap.tmp")
	if err := os.WriteFile(snapTmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys.Abort()

	rec := openDurable(t, dir, 0)
	defer rec.Close()
	for m := int64(0); m <= 1; m++ {
		if got, want := report(t, rec, m), report(t, control, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d verdicts diverge after mid-rename recovery", m)
		}
	}
}

// shardStat returns the ShardStat of a resident minute.
func shardStat(t testing.TB, sys *System, m int64) ShardStat {
	t.Helper()
	for _, st := range sys.Store().ShardStats() {
		if st.Minute == m {
			return st
		}
	}
	t.Fatalf("minute %d is not resident", m)
	return ShardStat{}
}

// TestEvictReloadEquality streams six minutes through a system with a
// two-minute horizon, evicting as it goes, and checks the retention
// invariants: the resident set stays bounded, investigations against
// evicted minutes return verdicts identical to an always-resident
// control, a reloaded minute keeps its quarantine count and its epoch,
// duplicate rejection still covers evicted identifiers, and a late
// ingest into an evicted minute merges into the minute's full
// population.
func TestEvictReloadEquality(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 2)
	defer sys.Close()
	control := controlSystem(t)

	const minutes = 6
	for m := int64(0); m < minutes; m++ {
		uploadMinute(t, m, 20, 10+m, sys, control)
		// A quarantined profile rides in every segment without a node.
		for _, target := range []*System{sys, control} {
			if err := target.UploadVP(implausibleProfile(t, m, 60+m).Marshal()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Store().ApplyRetention(); err != nil {
			t.Fatal(err)
		}
	}
	ret := sys.Store().RetentionStatsSnapshot()
	if ret.ResidentMinutes > 2 {
		t.Fatalf("resident minutes %d exceed the 2-minute horizon", ret.ResidentMinutes)
	}
	if ret.EvictedMinutes != minutes-2 {
		t.Fatalf("evicted %d minutes, want %d", ret.EvictedMinutes, minutes-2)
	}
	if sys.Store().MinuteCount() != minutes {
		t.Fatalf("MinuteCount %d, want %d (evicted minutes still count)", sys.Store().MinuteCount(), minutes)
	}

	// Cold queries against evicted minutes: verdicts must match the
	// always-resident control exactly, and the cold resident set stays
	// within its LRU bound of 1.
	for _, m := range []int64{0, 2, 1} {
		if got, want := report(t, sys, m), report(t, control, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d: evicted verdicts diverge from resident control", m)
		}
		got, want := shardStat(t, sys, m), shardStat(t, control, m)
		if got != want || want.Quarantined != 1 {
			t.Fatalf("minute %d: reloaded shard %+v, resident control %+v (one quarantined)", m, got, want)
		}
		if got, want := sys.Store().MinuteEpoch(m), control.Store().MinuteEpoch(m); got != want {
			t.Fatalf("minute %d: reloaded epoch %d, resident control %d", m, got, want)
		}
		if _, err := sys.Store().ApplyRetention(); err != nil {
			t.Fatal(err)
		}
		if ret := sys.Store().RetentionStatsSnapshot(); ret.ColdResident > 1 {
			t.Fatalf("cold resident set grew to %d, want <= 1", ret.ColdResident)
		}
	}

	// Duplicate rejection reaches across eviction: re-uploading an
	// evicted minute's batch stores nothing.
	evictedProfiles := control.Store().Minute(0)
	res, err := sys.UploadVPBatch(vp.MarshalBatch(evictedProfiles[:5]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != 0 || res.Duplicates != 5 {
		t.Fatalf("evicted replay: stored %d, duplicates %d; want 0/5", res.Stored, res.Duplicates)
	}

	// Get follows the marker through a reload.
	if _, ok := sys.Store().Get(evictedProfiles[3].ID()); !ok {
		t.Fatal("Get lost an evicted identifier")
	}

	// A late ingest into an evicted minute joins the full population.
	late := recordDurOwner(t, 0, 17).p
	for _, target := range []*System{sys, control} {
		if err := target.UploadVP(late.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Store().ApplyRetention(); err != nil {
		t.Fatal(err)
	}
	if got, want := report(t, sys, 0), report(t, control, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("late ingest into evicted minute diverges from control")
	}
}

// TestReloadRefusesShortLinkSection rewrites evicted minutes' segments
// so their link sections list one node fewer, or one more, than their
// records admit — checksum recomputed, so only the node count is wrong
// — and checks that each reload fails instead of restoring a partial
// graph, while an intact minute still reloads.
func TestReloadRefusesShortLinkSection(t *testing.T) {
	sys := openDurable(t, t.TempDir(), 1)
	defer sys.Close()
	st := sys.Store()
	for m := int64(0); m < 4; m++ {
		uploadMinute(t, m, 12, 40+m, sys)
		if _, err := st.ApplyRetention(); err != nil {
			t.Fatal(err)
		}
	}
	tamper := map[int64]func([][]int) [][]int{
		0: func(l [][]int) [][]int { return l[:len(l)-1] },
		1: func(l [][]int) [][]int { return append(l, nil) },
	}
	for m, edit := range tamper {
		profiles, links, err := st.readSegment(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.segmentPath(m), segmentImage(m, profiles, edit(links)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.InvestigateReport("t", durSite, m); err == nil || !strings.Contains(err.Error(), "link section lists") {
			t.Fatalf("minute %d: reload of a miscounted link section: %v, want a node-count error", m, err)
		}
	}
	if _, err := sys.InvestigateReport("t", durSite, 2); err != nil {
		t.Fatalf("intact minute 2 after the refused reloads: %v", err)
	}
}

// TestReopenIgnoresTornSpillTemp crashes a durable system that left a
// torn minute-0.seg.tmp behind, as a crash mid-spill does, while minute
// 0 lives only in the WAL. Recovery must not take the temp file for a
// segment: the system reopens, every minute reports like an
// always-resident control, and the next spill of minute 0 overwrites
// the leftover.
func TestReopenIgnoresTornSpillTemp(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 2)
	control := controlSystem(t)
	for m := int64(0); m < 3; m++ {
		uploadMinute(t, m, 12, 70+m, sys, control)
	}
	segDir := filepath.Join(dir, "ingest.wal.segments")
	if err := os.WriteFile(filepath.Join(segDir, "minute-0.seg.tmp"), []byte("VMAPSEG2 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys.Abort()

	rec := openDurable(t, dir, 2)
	defer rec.Close()
	for m := int64(0); m < 3; m++ {
		if got, want := report(t, rec, m), report(t, control, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d: recovered verdicts diverge from resident control", m)
		}
	}
	if n, err := rec.Store().ApplyRetention(); err != nil || n != 1 {
		t.Fatalf("ApplyRetention = (%d, %v), want minute 0 spilled", n, err)
	}
	if got, want := report(t, rec, 0), report(t, control, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("minute 0 reloaded over the leftover temp file diverges from resident control")
	}
}

// TestConcurrentSpillsOnDirtyMinutes races segment spills of the same
// dirty minutes: four ApplyRetention sweeps and two cold-set trims run
// at once, over hot minutes past the horizon and over cold minutes
// that took a late ingest. Every spill of a minute goes through the
// minute's one temp path, so unserialized racers fail their renames or
// rename a torn segment into place. No call may fail, and every evicted
// minute must reload report-equal to an always-resident control.
func TestConcurrentSpillsOnDirtyMinutes(t *testing.T) {
	sys := openDurable(t, t.TempDir(), 1)
	defer sys.Close()
	control := controlSystem(t)
	st := sys.Store()

	minute := int64(0)
	for ; minute < 4; minute++ {
		uploadMinute(t, minute, 12, 300+minute, sys, control)
		if _, err := st.ApplyRetention(); err != nil {
			t.Fatal(err)
		}
	}
	for round := int64(0); round < 5; round++ {
		// Two fresh minutes leave two dirty hot minutes past the horizon.
		for i := 0; i < 2; i++ {
			uploadMinute(t, minute, 12, 300+minute, sys, control)
			minute++
		}
		// A late ingest into an evicted minute reloads it as a cold shard
		// and dirties it. The wider cap keeps three such minutes resident;
		// narrowing it again leaves every trim racing for the same two.
		st.cfg.residentColdMinutes = 3
		for m := int64(0); m < 3; m++ {
			uploadMinute(t, m, 4, 500+10*round+m, sys, control)
		}
		st.cfg.residentColdMinutes = 1
		if ret := st.RetentionStatsSnapshot(); ret.ColdResident != 3 {
			t.Fatalf("round %d: %d cold minutes resident before the race, want 3", round, ret.ColdResident)
		}

		errs := make(chan error, 6)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(sweep bool) {
				defer wg.Done()
				<-start
				var err error
				if sweep {
					_, err = st.ApplyRetention()
				} else {
					_, err = st.trimCold()
				}
				errs <- err
			}(g < 4)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("round %d: concurrent spill: %v", round, err)
			}
		}
		if ret := st.RetentionStatsSnapshot(); ret.ColdResident != 1 || ret.ResidentMinutes != 2 {
			t.Fatalf("round %d: %d minutes resident (%d cold) after the race, want the newest plus 1 cold", round, ret.ResidentMinutes, ret.ColdResident)
		}
	}
	for m := int64(0); m < minute; m++ {
		if got, want := report(t, sys, m), report(t, control, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d: verdicts after concurrent spills diverge from the resident control", m)
		}
	}
}

// TestRetentionSurvivesCrash checks the segment/WAL split: evicted
// minutes recover from their segment files, resident ones from
// snapshot + WAL, and verdicts match the control everywhere.
func TestRetentionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, 2)
	control := controlSystem(t)
	const minutes = 5
	for m := int64(0); m < minutes; m++ {
		uploadMinute(t, m, 20, 20+m, sys, control)
		if _, err := sys.Store().ApplyRetention(); err != nil {
			t.Fatal(err)
		}
		if m == 2 {
			if err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	preLen := sys.Store().Len()
	sys.Abort()

	rec := openDurable(t, dir, 2)
	defer rec.Close()
	if got := rec.Store().Len(); got != preLen {
		t.Fatalf("recovered %d VPs, want %d", got, preLen)
	}
	for m := int64(0); m < minutes; m++ {
		if got, want := report(t, rec, m), report(t, control, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("minute %d verdicts diverge after crash with retention", m)
		}
	}
}
