// Package reward implements ViewMap's untraceable rewarding (Section
// 5.3 and Appendix A): virtual cash minted with Chaum blind signatures
// so the system can pay a video's anonymous owner without being able
// to link the cash back to the video.
//
// Protocol, in the paper's notation:
//
//	A -> S : VP_u, Q_u                    (ownership proof, R_u = H(Q_u))
//	S -> A : n                            (cash units granted)
//	A -> S : B(H(m_1),r_1)...B(H(m_n),r_n)  (blinded random messages)
//	S -> A : {B(H(m_i),r_i)}_{K_S^-}      (blind RSA signatures)
//	A      : unblind with r_i -> ({H(m_i)}_{K_S^-}, m_i)  = one unit
//
// Anyone can verify a unit against the system's public key; the system
// keeps a double-spending ledger over the revealed messages. Without
// the blinding secrets r_i — known only to A — the system cannot
// connect a redeemed unit to the blinded message it once signed.
//
// The blind-RSA arithmetic is implemented directly over math/big:
// blind(m) = H(m) * r^e mod N, sign(x) = x^d mod N, and unblinding
// divides out r. This is textbook RSA (no OAEP/PSS padding) — blind
// signatures require the raw homomorphism, which is exactly why Chaum
// cash uses it.
//
// The bank signs through the Chinese remainder theorem: for each prime
// p_i of the key it computes x^(d mod (p_i-1)) mod p_i and recombines
// the residues with Garner's formula. One loop serves two-prime and
// multi-prime PKCS#1 keys alike; on a 2048-bit key it costs about a
// third of one full-width exponentiation, check included. The
// per-prime exponents and coefficients are derived once per installed
// key, inside the value that publishes it. One faulty CRT signature
// reveals a factor of N (Boneh–DeMillo–Lipton), so every signature is
// checked with s^e mod N == x before it leaves the bank; a mismatch
// returns ErrSignatureFault and no signature. math/big's Exp is
// variable-time, so the bank makes no claim against timing side
// channels.
package reward

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// MessageBytes is the size of the random cash message m.
const MessageBytes = 32

// ErrDoubleSpend is returned when a unit of cash is redeemed twice.
var ErrDoubleSpend = errors.New("reward: cash already spent")

// ErrBadSignature is returned when a unit fails signature verification.
var ErrBadSignature = errors.New("reward: invalid signature")

// ErrSignatureFault is returned by SignBlinded when a computed
// signature fails its own verification (s^e mod N != x). The faulty
// value is withheld: released, it would reveal a prime factor of N.
// It signals a fault in the signer, not a bad request.
var ErrSignatureFault = errors.New("reward: signature failed its self-check")

// errUnusablePrimes is returned for a key whose prime factors cannot
// drive CRT signing (fewer than two, or a factor <= 1, or two factors
// sharing a divisor).
var errUnusablePrimes = errors.New("reward: key has unusable prime factors")

// hashToInt maps a message into Z_N via SHA-256.
func hashToInt(m []byte, n *big.Int) *big.Int {
	sum := sha256.Sum256(m)
	return new(big.Int).Mod(new(big.Int).SetBytes(sum[:]), n)
}

// Cash is one unit of virtual money: the revealed random message and
// the unblinded signature over its hash.
type Cash struct {
	M   []byte
	Sig *big.Int
}

// Verify checks the unit against the issuing system's public key:
// Sig^e mod N == H(M).
func (c *Cash) Verify(pub *rsa.PublicKey) bool {
	if c == nil || c.Sig == nil || len(c.M) == 0 {
		return false
	}
	lhs := new(big.Int).Exp(c.Sig, big.NewInt(int64(pub.E)), pub.N)
	return lhs.Cmp(hashToInt(c.M, pub.N)) == 0
}

// Note is the client-side state for one pending unit: the secret
// message and the blinding factor r, which never leave the client.
type Note struct {
	m []byte
	r *big.Int
}

// NewNote draws a fresh random message and blinding secret for the
// given bank key.
func NewNote(pub *rsa.PublicKey, random io.Reader) (*Note, error) {
	m := make([]byte, MessageBytes)
	if _, err := io.ReadFull(random, m); err != nil {
		return nil, fmt.Errorf("reward: drawing message: %w", err)
	}
	r, err := randomUnit(pub.N, random)
	if err != nil {
		return nil, err
	}
	return &Note{m: m, r: r}, nil
}

// randomUnit draws r in [2, N) with gcd(r, N) = 1.
func randomUnit(n *big.Int, random io.Reader) (*big.Int, error) {
	one := big.NewInt(1)
	for {
		r, err := rand.Int(random, n)
		if err != nil {
			return nil, fmt.Errorf("reward: drawing blinding factor: %w", err)
		}
		if r.Cmp(one) <= 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, n).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Blind produces B(H(m), r) = H(m) * r^e mod N, the value sent to the
// bank for signing.
func (n *Note) Blind(pub *rsa.PublicKey) *big.Int {
	h := hashToInt(n.m, pub.N)
	re := new(big.Int).Exp(n.r, big.NewInt(int64(pub.E)), pub.N)
	return h.Mul(h, re).Mod(h, pub.N)
}

// Unblind divides the bank's blind signature by r, yielding the
// spendable unit: sig = blindSig * r^{-1} mod N = H(m)^d mod N.
func (n *Note) Unblind(pub *rsa.PublicKey, blindSig *big.Int) (*Cash, error) {
	rInv := new(big.Int).ModInverse(n.r, pub.N)
	if rInv == nil {
		return nil, errors.New("reward: blinding factor not invertible")
	}
	sig := new(big.Int).Mul(blindSig, rInv)
	sig.Mod(sig, pub.N)
	c := &Cash{M: append([]byte(nil), n.m...), Sig: sig}
	if !c.Verify(pub) {
		return nil, ErrBadSignature
	}
	return c, nil
}

// Bank is the system-side signer and double-spending ledger.
type Bank struct {
	// mu guards both the signer (replaced wholesale by LoadFrom) and
	// the spent ledger.
	mu     sync.Mutex
	signer *signer
	spent  map[[32]byte]bool
}

// signer is one installed key with the CRT values derived from it.
// Both live in the one value LoadFrom publishes, so a concurrent
// LoadFrom can never pair one key's CRT values with another key's
// modulus.
type signer struct {
	key *rsa.PrivateKey
	e   *big.Int
	// once derives factors on the first signature, so a bank that is
	// built and never signs pays nothing; LoadFrom derives at once to
	// refuse a key it could not sign with.
	once sync.Once
	// factors drive CRT signing, in the key's prime order; nil when
	// the key's primes are unusable (see errUnusablePrimes).
	factors []crtFactor
}

// crtFactor is one prime p_i of the key with its exponent
// d mod (p_i-1) and, for i >= 1, Garner's coefficient
// (p_0*...*p_{i-1})^-1 mod p_i and the prefix product it inverts.
type crtFactor struct {
	p, exp       *big.Int
	coeff, prior *big.Int
}

func newSigner(key *rsa.PrivateKey) *signer {
	return &signer{key: key, e: big.NewInt(int64(key.E))}
}

// crt returns the key's CRT factors, deriving them on first use; nil
// when the key's primes are unusable.
func (s *signer) crt() []crtFactor {
	s.once.Do(func() { s.factors = crtFactors(s.key) })
	return s.factors
}

// crtFactors derives the CRT values of key, or returns nil when its
// primes are unusable.
func crtFactors(key *rsa.PrivateKey) []crtFactor {
	if len(key.Primes) < 2 {
		return nil
	}
	one := big.NewInt(1)
	factors := make([]crtFactor, len(key.Primes))
	prior := big.NewInt(1)
	for i, p := range key.Primes {
		if p == nil || p.Cmp(one) <= 0 {
			return nil
		}
		f := crtFactor{p: p, exp: new(big.Int).Mod(key.D, new(big.Int).Sub(p, one))}
		if i > 0 {
			f.prior = new(big.Int).Set(prior)
			f.coeff = new(big.Int).ModInverse(new(big.Int).Mod(prior, p), p)
			if f.coeff == nil {
				return nil
			}
		}
		prior.Mul(prior, p)
		factors[i] = f
	}
	return factors
}

// sign computes x^d mod N by CRT and checks the result before
// returning it.
func (s *signer) sign(x *big.Int) (*big.Int, error) {
	factors := s.crt()
	if factors == nil {
		return nil, errUnusablePrimes
	}
	// Garner's mixed-radix recombination: after step i, sig is the
	// unique value below p_0*...*p_i matching every residue so far.
	sig, m, t := new(big.Int), new(big.Int), new(big.Int)
	for i, f := range factors {
		m.Mod(x, f.p)
		m.Exp(m, f.exp, f.p)
		if i == 0 {
			sig.Set(m)
			continue
		}
		m.Sub(m, t.Mod(sig, f.p))
		m.Mul(m, f.coeff)
		m.Mod(m, f.p)
		sig.Add(sig, m.Mul(m, f.prior))
	}
	if sig.Cmp(s.key.N) >= 0 || t.Exp(sig, s.e, s.key.N).Cmp(x) != 0 {
		return nil, ErrSignatureFault
	}
	return sig, nil
}

// current returns the installed signer under the lock. Its key never
// changes and its CRT values are derived under its own once, so
// callers may use it lock-free.
func (b *Bank) current() *signer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.signer
}

// NewBank generates a bank with a fresh RSA key of the given size
// (>= 1024 bits; 2048 recommended).
func NewBank(bits int) (*Bank, error) {
	if bits < 1024 {
		return nil, fmt.Errorf("reward: key size %d too small", bits)
	}
	key, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("reward: generating key: %w", err)
	}
	return NewBankFromKey(key), nil
}

// NewBankFromKey wraps an existing key (tests, persistent deployments).
// A key whose primes cannot drive CRT signing makes every SignBlinded
// call fail.
func NewBankFromKey(key *rsa.PrivateKey) *Bank {
	return &Bank{signer: newSigner(key), spent: make(map[[32]byte]bool)}
}

// PublicKey returns the verification key.
func (b *Bank) PublicKey() *rsa.PublicKey { return &b.current().key.PublicKey }

// SignBlinded signs a blinded message with the bank's private key. The
// bank learns nothing about the underlying message. Values outside
// [0, N) are rejected. A signature that fails its self-check returns
// ErrSignatureFault.
func (b *Bank) SignBlinded(blinded *big.Int) (*big.Int, error) {
	s := b.current()
	if blinded == nil || blinded.Sign() < 0 || blinded.Cmp(s.key.N) >= 0 {
		return nil, errors.New("reward: blinded message out of range")
	}
	return s.sign(blinded)
}

// Redeem verifies a unit and records it as spent. The second
// presentation of the same message returns ErrDoubleSpend.
func (b *Bank) Redeem(c *Cash) error {
	if !c.Verify(b.PublicKey()) {
		return ErrBadSignature
	}
	key := sha256.Sum256(c.M)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.spent[key] {
		return ErrDoubleSpend
	}
	b.spent[key] = true
	return nil
}

// SpentCount returns the number of redeemed units.
func (b *Bank) SpentCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.spent)
}

// bankMagic heads a serialized bank so arbitrary files are rejected.
var bankMagic = [8]byte{'V', 'M', 'B', 'A', 'N', 'K', '0', '1'}

// SaveTo serializes the bank — the RSA signing keypair and the
// double-spend ledger — so both survive a system restart. Without
// this, a restarted system would either mint against a fresh key
// (orphaning every unit in circulation) or forget which units were
// already spent (re-admitting double spends). The format is the magic,
// the PKCS#1 DER key prefixed by its length, and the spent-message
// hashes.
func (b *Bank) SaveTo(w io.Writer) error {
	b.mu.Lock()
	key := b.signer.key
	spent := make([][32]byte, 0, len(b.spent))
	for k := range b.spent {
		spent = append(spent, k)
	}
	b.mu.Unlock()
	if _, err := w.Write(bankMagic[:]); err != nil {
		return err
	}
	der := x509.MarshalPKCS1PrivateKey(key)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(der)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(spent)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(der); err != nil {
		return err
	}
	for _, k := range spent {
		if _, err := w.Write(k[:]); err != nil {
			return err
		}
	}
	return nil
}

// LoadFrom restores a bank serialized by SaveTo into this bank in
// place, replacing its keypair and ledger. In-place restoration keeps
// every handle to the bank (the system, the evidence subsystem) valid
// across a reload.
func (b *Bank) LoadFrom(r io.Reader) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("reward: reading bank header: %w", err)
	}
	if magic != bankMagic {
		return errors.New("reward: not a bank file")
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	derLen := binary.BigEndian.Uint32(hdr[:4])
	spentLen := binary.BigEndian.Uint32(hdr[4:])
	if derLen > 1<<16 {
		return fmt.Errorf("reward: key of %d bytes implausible", derLen)
	}
	der := make([]byte, derLen)
	if _, err := io.ReadFull(r, der); err != nil {
		return err
	}
	key, err := x509.ParsePKCS1PrivateKey(der)
	if err != nil {
		return fmt.Errorf("reward: parsing bank key: %w", err)
	}
	s := newSigner(key)
	if s.crt() == nil {
		return errUnusablePrimes
	}
	// Cap the preallocation hint: spentLen comes from the file, and a
	// corrupt count must fail on the truncated read below rather than
	// drive a multi-gigabyte map allocation first.
	hint := spentLen
	if hint > 1<<20 {
		hint = 1 << 20
	}
	spent := make(map[[32]byte]bool, hint)
	for i := uint32(0); i < spentLen; i++ {
		var k [32]byte
		if _, err := io.ReadFull(r, k[:]); err != nil {
			return fmt.Errorf("reward: spent entry %d: %w", i, err)
		}
		spent[k] = true
	}
	b.mu.Lock()
	b.signer = s
	b.spent = spent
	b.mu.Unlock()
	return nil
}

// Withdraw runs the full client side for n units against the bank:
// create notes, blind, obtain signatures, unblind. It exists as a
// convenience for in-process use; the HTTP protocol in internal/server
// performs the same steps across the wire.
func Withdraw(b *Bank, n int, random io.Reader) ([]*Cash, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reward: unit count must be positive, got %d", n)
	}
	out := make([]*Cash, 0, n)
	for i := 0; i < n; i++ {
		note, err := NewNote(b.PublicKey(), random)
		if err != nil {
			return nil, err
		}
		sig, err := b.SignBlinded(note.Blind(b.PublicKey()))
		if err != nil {
			return nil, err
		}
		cash, err := note.Unblind(b.PublicKey(), sig)
		if err != nil {
			return nil, err
		}
		out = append(out, cash)
	}
	return out, nil
}
