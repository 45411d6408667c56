package sim

import (
	"crypto/rand"
	"errors"
	"math/big"
	"path/filepath"
	"testing"

	"viewmap/internal/anon"
	"viewmap/internal/evidence"
	"viewmap/internal/reward"
	"viewmap/internal/server"
	"viewmap/internal/vp"
)

// deliveredEvidenceSystem drives the smallest honest pipeline to the
// point where one delivery is accepted: a one-civilian convoy (shared
// with the adversarial-serving scenario, here through direct System
// calls) records and uploads, a solicitation opens at the given
// offer, and the civilian delivers its video.
func deliveredEvidenceSystem(t *testing.T, units int) (*server.System, *anon.Sessions, convoyOwner) {
	t.Helper()
	sys, err := server.NewSystem(evidenceEdgeConfig)
	if err != nil {
		t.Fatal(err)
	}
	sessions, owner := deliverEvidence(t, sys, units)
	return sys, sessions, owner
}

// evidenceEdgeConfig is the system configuration of the evidence edge
// tests.
var evidenceEdgeConfig = server.Config{AuthorityToken: "edge", BankBits: 1024}

// deliverEvidence drives sys through deliveredEvidenceSystem's pipeline.
func deliverEvidence(t *testing.T, sys *server.System, units int) (*anon.Sessions, convoyOwner) {
	t.Helper()
	owners, err := testConvoyOwners(1, 31,
		func(p *vp.Profile) error { return sys.UploadTrustedVP("edge", p.Marshal()) },
		func(p *vp.Profile) error { return sys.UploadVP(p.Marshal()) })
	if err != nil {
		t.Fatal(err)
	}
	owner := owners[0]
	if _, err := sys.OpenSolicitation("edge", convoySite, 0, units); err != nil {
		t.Fatal(err)
	}
	sessions := anon.NewSessions()
	sid, err := sessions.New()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sys.Evidence().Deliver(sid, owner.id, owner.q, owner.chunks); err != nil || got != units {
		t.Fatalf("honest delivery: units %d, err %v", got, err)
	}
	return sessions, owner
}

// TestEvidenceDeliverClosedSolicitation covers the delivery-after-
// close edge: once a solicitation entry accepted a video, further
// deliveries — even the identical honest bytes under a fresh session
// and a valid ownership proof — are refused as already delivered.
func TestEvidenceDeliverClosedSolicitation(t *testing.T) {
	sys, sessions, owner := deliveredEvidenceSystem(t, 2)
	sid, err := sessions.New()
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Evidence().Deliver(sid, owner.id, owner.q, owner.chunks)
	if !errors.Is(err, evidence.ErrAlreadyDelivered) {
		t.Fatalf("redelivery into a closed solicitation: err = %v, want ErrAlreadyDelivered", err)
	}
	// The accepted delivery must be unaffected: payout still open.
	if st := sys.Evidence().StatsSnapshot(); st.DeliveriesAccepted != 1 {
		t.Fatalf("accepted count %d after refused redelivery, want 1", st.DeliveriesAccepted)
	}
}

// TestEvidencePayoutAfterRestart covers the restart edge: an owner
// whose delivery was accepted before a durable system closed must
// still be able to withdraw the full entitlement once it reopens from
// its data directory, the minted cash must redeem there, and units
// spent before the restart must stay spent.
func TestEvidencePayoutAfterRestart(t *testing.T) {
	const units = 2
	dir := t.TempDir()
	open := func() *server.System {
		t.Helper()
		sys, err := server.OpenDurable(evidenceEdgeConfig, server.DurabilityConfig{WALPath: filepath.Join(dir, "ingest.wal")})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	sessions, owner := deliverEvidence(t, sys, units)

	// Spend one unit before the restart; one stays entitled.
	preCash, err := withdrawEvidence(sys, sessions, owner, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Evidence().Redeem(preCash[0]); err != nil {
		t.Fatal(err)
	}

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	restored := open()
	defer restored.Close()

	// The remaining unit withdraws and redeems on the restored system
	// (the restored bank carries the pre-restart keypair, so the new
	// signature verifies under the same key the old cash was minted
	// with).
	postCash, err := withdrawEvidence(restored, sessions, owner, 1)
	if err != nil {
		t.Fatalf("post-restart withdrawal: %v", err)
	}
	if err := restored.Evidence().Redeem(postCash[0]); err != nil {
		t.Fatalf("post-restart redemption: %v", err)
	}
	// The entitlement is now exhausted…
	if _, err := withdrawEvidence(restored, sessions, owner, 1); err == nil {
		t.Fatal("over-withdrawal after restart succeeded")
	}
	// …and the pre-restart spend stays spent.
	if err := restored.Evidence().Redeem(preCash[0]); !errors.Is(err, reward.ErrDoubleSpend) {
		t.Fatalf("pre-restart unit re-redeemed: err = %v, want ErrDoubleSpend", err)
	}
}

// TestEvidenceRedeemNeverMinted covers the forged-cash edge: a unit
// the bank never signed — random message, random "signature" — is
// refused as a bad signature, not recorded as spent.
func TestEvidenceRedeemNeverMinted(t *testing.T) {
	sys, _, _ := deliveredEvidenceSystem(t, 1)
	m := make([]byte, 32)
	if _, err := rand.Read(m); err != nil {
		t.Fatal(err)
	}
	forged := &reward.Cash{M: m, Sig: big.NewInt(1234567)}
	if err := sys.Evidence().Redeem(forged); !errors.Is(err, reward.ErrBadSignature) {
		t.Fatalf("never-minted unit: err = %v, want ErrBadSignature", err)
	}
	if st := sys.Evidence().StatsSnapshot(); st.UnitsRedeemed != 0 {
		t.Fatalf("forged unit counted as redeemed (%d)", st.UnitsRedeemed)
	}
}

// withdrawEvidence runs the client side of one payout: blind fresh
// notes, have the evidence desk sign them under a single-use session,
// unblind into spendable cash.
func withdrawEvidence(sys *server.System, sessions *anon.Sessions, o convoyOwner, n int) ([]*reward.Cash, error) {
	pub := sys.Bank().PublicKey()
	notes := make([]*reward.Note, n)
	blinded := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		note, err := reward.NewNote(pub, rand.Reader)
		if err != nil {
			return nil, err
		}
		notes[i] = note
		blinded[i] = note.Blind(pub)
	}
	sid, err := sessions.New()
	if err != nil {
		return nil, err
	}
	sigs, err := sys.Evidence().Payout(sid, o.id, o.q, blinded)
	if err != nil {
		return nil, err
	}
	cash := make([]*reward.Cash, n)
	for i := range sigs {
		c, err := notes[i].Unblind(pub, sigs[i])
		if err != nil {
			return nil, err
		}
		cash[i] = c
	}
	return cash, nil
}
