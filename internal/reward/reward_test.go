package reward

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// testBank caches one RSA key across tests; key generation dominates
// test time otherwise.
var (
	bankOnce sync.Once
	bankKey  *rsa.PrivateKey
)

func testBank(t testing.TB) *Bank {
	t.Helper()
	bankOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		bankKey = k
	})
	return NewBankFromKey(bankKey)
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(512); err == nil {
		t.Error("tiny keys should be rejected")
	}
}

func TestWithdrawVerifyRedeem(t *testing.T) {
	bank := testBank(t)
	units, err := Withdraw(bank, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 3 {
		t.Fatalf("got %d units, want 3", len(units))
	}
	for i, c := range units {
		if !c.Verify(bank.PublicKey()) {
			t.Errorf("unit %d fails verification", i)
		}
		if err := bank.Redeem(c); err != nil {
			t.Errorf("unit %d fails redemption: %v", i, err)
		}
	}
	if bank.SpentCount() != 3 {
		t.Errorf("SpentCount = %d, want 3", bank.SpentCount())
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	bank := testBank(t)
	units, err := Withdraw(bank, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Redeem(units[0]); err != nil {
		t.Fatal(err)
	}
	if err := bank.Redeem(units[0]); err != ErrDoubleSpend {
		t.Errorf("second redemption = %v, want ErrDoubleSpend", err)
	}
}

func TestForgedCashRejected(t *testing.T) {
	bank := testBank(t)
	forged := &Cash{M: []byte("free money"), Sig: big.NewInt(12345)}
	if forged.Verify(bank.PublicKey()) {
		t.Error("forged cash must not verify")
	}
	if err := bank.Redeem(forged); err != ErrBadSignature {
		t.Errorf("Redeem(forged) = %v, want ErrBadSignature", err)
	}
}

func TestTamperedCashRejected(t *testing.T) {
	bank := testBank(t)
	units, err := Withdraw(bank, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tampered := &Cash{M: append([]byte(nil), units[0].M...), Sig: new(big.Int).Set(units[0].Sig)}
	tampered.M[0] ^= 1
	if tampered.Verify(bank.PublicKey()) {
		t.Error("tampered message must not verify")
	}
	tampered2 := &Cash{M: units[0].M, Sig: new(big.Int).Add(units[0].Sig, big.NewInt(1))}
	if tampered2.Verify(bank.PublicKey()) {
		t.Error("tampered signature must not verify")
	}
}

func TestCashVerifyNilSafety(t *testing.T) {
	bank := testBank(t)
	var c *Cash
	if c.Verify(bank.PublicKey()) {
		t.Error("nil cash must not verify")
	}
	if (&Cash{}).Verify(bank.PublicKey()) {
		t.Error("empty cash must not verify")
	}
}

func TestBlindingHidesMessage(t *testing.T) {
	// Two blindings of the same message are different group elements:
	// the bank cannot even tell that two withdrawals hide the same m.
	bank := testBank(t)
	pub := bank.PublicKey()
	n1, err := NewNote(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	n2 := &Note{m: n1.m} // same message, fresh blinding
	r2, err := randomUnit(pub.N, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	n2.r = r2
	b1, b2 := n1.Blind(pub), n2.Blind(pub)
	if b1.Cmp(b2) == 0 {
		t.Error("distinct blinding factors must produce distinct blinded messages")
	}
}

func TestUnblindedSignatureUnlinkable(t *testing.T) {
	// The value the bank signs differs from the value that circulates:
	// the bank's view (blinded) and the public view (unblinded) share
	// no common element.
	bank := testBank(t)
	pub := bank.PublicKey()
	note, err := NewNote(pub, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blinded := note.Blind(pub)
	sig, err := bank.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	cash, err := note.Unblind(pub, sig)
	if err != nil {
		t.Fatal(err)
	}
	if cash.Sig.Cmp(sig) == 0 {
		t.Error("circulating signature must differ from the blind signature the bank saw")
	}
	if !cash.Verify(pub) {
		t.Error("unblinded cash must verify")
	}
}

func TestSignBlindedRange(t *testing.T) {
	bank := testBank(t)
	if _, err := bank.SignBlinded(nil); err == nil {
		t.Error("nil blinded message should fail")
	}
	if _, err := bank.SignBlinded(big.NewInt(-5)); err == nil {
		t.Error("negative blinded message should fail")
	}
	tooBig := new(big.Int).Add(bank.PublicKey().N, big.NewInt(1))
	if _, err := bank.SignBlinded(tooBig); err == nil {
		t.Error("out-of-range blinded message should fail")
	}
}

func TestWithdrawValidation(t *testing.T) {
	bank := testBank(t)
	if _, err := Withdraw(bank, 0, rand.Reader); err == nil {
		t.Error("zero units should fail")
	}
}

func TestCrossBankCashRejected(t *testing.T) {
	bank := testBank(t)
	otherKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	other := NewBankFromKey(otherKey)
	units, err := Withdraw(other, 1, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if units[0].Verify(bank.PublicKey()) {
		t.Error("cash from another bank must not verify")
	}
}

func BenchmarkWithdrawOneUnit(b *testing.B) {
	bank := testBank(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Withdraw(bank, 1, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyCash(b *testing.B) {
	bank := testBank(b)
	units, err := Withdraw(bank, 1, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !units[0].Verify(bank.PublicKey()) {
			b.Fatal("verification failed")
		}
	}
}

func TestBankSaveLoadRoundTrip(t *testing.T) {
	bank := testBank(t)
	units, err := Withdraw(bank, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Redeem(units[0]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := bank.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewBank(1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.LoadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// The keypair survived: units minted before the restart verify
	// against the restored public key.
	if restarted.PublicKey().N.Cmp(bank.PublicKey().N) != 0 {
		t.Fatal("restored bank has a different modulus")
	}
	if !units[1].Verify(restarted.PublicKey()) {
		t.Fatal("pre-restart unit must verify against the restored key")
	}

	// The ledger survived: the unit spent before the restart is still
	// spent, the unspent one still redeems exactly once.
	if err := restarted.Redeem(units[0]); err != ErrDoubleSpend {
		t.Fatalf("double spend across restart: got %v, want ErrDoubleSpend", err)
	}
	if err := restarted.Redeem(units[1]); err != nil {
		t.Fatalf("redeeming the unspent unit: %v", err)
	}
	if err := restarted.Redeem(units[1]); err != ErrDoubleSpend {
		t.Fatalf("second redemption: got %v, want ErrDoubleSpend", err)
	}
	if restarted.SpentCount() != 2 {
		t.Fatalf("spent count = %d, want 2", restarted.SpentCount())
	}
}

func TestBankLoadRejectsGarbage(t *testing.T) {
	bank := testBank(t)
	if err := bank.LoadFrom(bytes.NewReader([]byte("not a bank file at all"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
	// A failed load must not clobber the live bank.
	if _, err := Withdraw(bank, 1, rand.Reader); err != nil {
		t.Fatalf("bank unusable after rejected load: %v", err)
	}
}

// bigKey caches one 2048-bit key for the CRT tests and the signing
// benchmark.
var (
	bigKeyOnce sync.Once
	bigKey     *rsa.PrivateKey
)

func testBigKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	bigKeyOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			t.Fatal(err)
		}
		bigKey = k
	})
	return bigKey
}

// reloaded returns a fresh bank restored from bank's serialization.
func reloaded(t *testing.T, bank *Bank) *Bank {
	t.Helper()
	var buf bytes.Buffer
	if err := bank.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := testBank(t)
	if err := out.LoadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSignBlindedMatchesExp(t *testing.T) {
	// Deprecated, but x509.ParsePKCS1PrivateKey still accepts the
	// multi-prime keys it makes, so the bank must still sign with them.
	multi, err := rsa.GenerateMultiPrimeKey(rand.Reader, 3, 1536)
	if err != nil {
		t.Fatal(err)
	}
	banks := map[string]*Bank{
		"2-prime 1024": testBank(t),
		"2-prime 2048": NewBankFromKey(testBigKey(t)),
		"3-prime 1536": NewBankFromKey(multi),
	}
	banks["2-prime 2048 via LoadFrom"] = reloaded(t, banks["2-prime 2048"])
	banks["3-prime 1536 via LoadFrom"] = reloaded(t, banks["3-prime 1536"])
	for name, bank := range banks {
		t.Run(name, func(t *testing.T) {
			s := bank.current()
			n := s.key.N
			values := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1))}
			seeded := mrand.New(mrand.NewSource(1))
			for i := 0; i < 100; i++ {
				v, err := rand.Int(seeded, n)
				if err != nil {
					t.Fatal(err)
				}
				values = append(values, v)
			}
			for _, v := range values {
				got, err := bank.SignBlinded(v)
				if err != nil {
					t.Fatalf("SignBlinded(%v): %v", v, err)
				}
				if want := new(big.Int).Exp(v, s.key.D, n); got.Cmp(want) != 0 {
					t.Fatalf("SignBlinded(%v) = %v, want %v", v, got, want)
				}
			}
		})
	}
}

func TestSignBlindedFaultWithheld(t *testing.T) {
	x, err := rand.Int(rand.Reader, testBank(t).PublicKey().N)
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewInt(1)
	corruptions := map[string]func(f []crtFactor){
		"exponent of p_0": func(f []crtFactor) { f[0].exp = new(big.Int).Add(f[0].exp, one) },
		"exponent of p_1": func(f []crtFactor) { f[1].exp = new(big.Int).Add(f[1].exp, one) },
		"coefficient":     func(f []crtFactor) { f[1].coeff = new(big.Int).Add(f[1].coeff, one) },
	}
	for name, corrupt := range corruptions {
		bank := testBank(t)
		factors := append([]crtFactor(nil), bank.current().crt()...)
		corrupt(factors)
		bad := newSigner(bank.current().key)
		bad.once.Do(func() { bad.factors = factors })
		bank.signer = bad
		if sig, err := bank.SignBlinded(x); !errors.Is(err, ErrSignatureFault) || sig != nil {
			t.Errorf("%s corrupted: SignBlinded = %v, %v; want nil, ErrSignatureFault", name, sig, err)
		}
	}

	// A key whose prime list disagrees with its modulus derives CRT
	// values without complaint; the self-check still catches them.
	wrongPrime := *testBank(t).current().key
	wrongPrime.Primes = []*big.Int{new(big.Int).Add(wrongPrime.Primes[0], big.NewInt(2)), wrongPrime.Primes[1]}
	if sig, err := NewBankFromKey(&wrongPrime).SignBlinded(x); !errors.Is(err, ErrSignatureFault) || sig != nil {
		t.Errorf("wrong prime: SignBlinded = %v, %v; want nil, ErrSignatureFault", sig, err)
	}
	noPrimes := *testBank(t).current().key
	noPrimes.Primes = nil
	if sig, err := NewBankFromKey(&noPrimes).SignBlinded(x); err == nil || sig != nil {
		t.Errorf("key without primes: SignBlinded = %v, %v; want an error", sig, err)
	}
}

// TestSignBlindedDuringKeySwap signs while LoadFrom swaps the bank
// between two keys: every signature must belong to one of them, never
// mix one key's CRT values with the other's modulus.
func TestSignBlindedDuringKeySwap(t *testing.T) {
	keyA := testBank(t).current().key
	keyB, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var saved [2][]byte
	for i, k := range []*rsa.PrivateKey{keyA, keyB} {
		var buf bytes.Buffer
		if err := NewBankFromKey(k).SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		saved[i] = buf.Bytes()
	}
	// x lies below both moduli, so either key may sign it.
	x := new(big.Int).Rsh(keyA.N, 2)
	bank := NewBankFromKey(keyA)
	verifies := func(sig *big.Int) bool {
		for _, k := range []*rsa.PrivateKey{keyA, keyB} {
			if new(big.Int).Exp(sig, big.NewInt(int64(k.E)), k.N).Cmp(x) == 0 {
				return true
			}
		}
		return false
	}
	const swaps, signers, signs = 200, 2, 100
	var wg sync.WaitGroup
	wg.Add(1 + signers)
	go func() {
		defer wg.Done()
		for i := 0; i < swaps; i++ {
			if err := bank.LoadFrom(bytes.NewReader(saved[i%2])); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < signers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < signs; i++ {
				sig, err := bank.SignBlinded(x)
				if err != nil {
					t.Error(err)
					return
				}
				if !verifies(sig) {
					t.Error("signature verifies under neither key")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkSignBlinded(b *testing.B) {
	bank := NewBankFromKey(testBigKey(b))
	x, err := rand.Int(rand.Reader, bank.PublicKey().N)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bank.SignBlinded(x); err != nil {
			b.Fatal(err)
		}
	}
}
