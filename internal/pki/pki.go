// Package pki provides the asymmetric-cryptography substrate PAG assumes
// (§III): node identities with signature and public-key encryption
// capabilities ({m}_X and ⟨m⟩_X in the paper's notation).
//
// Two interchangeable suites are provided:
//
//   - RSASuite: real RSA-2048 signatures (the paper's deployment setting,
//     §VII-A) and hybrid RSA-OAEP + AES-GCM encryption (updates exceed one
//     RSA block, so a hybrid scheme is the realistic construction).
//   - FastSuite: an HMAC-based drop-in whose signatures and ciphertexts
//     have byte-for-byte the same sizes as RSASuite's, so that bandwidth
//     measurements — the paper's metric — are unchanged, while large
//     simulations (≥ hundreds of nodes × thousands of exchanges) stay
//     tractable. This substitution is documented in DESIGN.md §4; CPU
//     costs are measured separately via counters and micro-benchmarks,
//     exactly as the paper does (§VII-C).
//
// Both suites attribute operation counts to per-identity Counters so the
// Table I quantities (signatures per second) can be measured.
package pki

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// Errors returned by verification and decryption.
var (
	ErrBadSignature  = errors.New("pki: signature verification failed")
	ErrBadCiphertext = errors.New("pki: ciphertext corrupt or wrong recipient")
	ErrUnknownNode   = errors.New("pki: unknown node identity")
)

// Counter tallies cryptographic operations for one party. Table I reports
// "the number of generated RSA encryptions and homomorphic hashes per
// second rather than the CPU load" (§VII-C); signatures are counted here.
type Counter struct {
	signs    atomic.Uint64
	verifies atomic.Uint64
	encrypts atomic.Uint64
	decrypts atomic.Uint64
}

// Signs returns the number of signatures produced.
func (c *Counter) Signs() uint64 {
	if c == nil {
		return 0
	}
	return c.signs.Load()
}

// Verifies returns the number of signature verifications performed.
func (c *Counter) Verifies() uint64 {
	if c == nil {
		return 0
	}
	return c.verifies.Load()
}

// Encrypts returns the number of public-key encryptions performed.
func (c *Counter) Encrypts() uint64 {
	if c == nil {
		return 0
	}
	return c.encrypts.Load()
}

// Decrypts returns the number of decryptions performed.
func (c *Counter) Decrypts() uint64 {
	if c == nil {
		return 0
	}
	return c.decrypts.Load()
}

// Reset zeroes all counts.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.signs.Store(0)
	c.verifies.Store(0)
	c.encrypts.Store(0)
	c.decrypts.Store(0)
}

// Identity is one node's key material. Identities are created through a
// Suite and are safe for concurrent use.
type Identity interface {
	// NodeID returns the owning node.
	NodeID() model.NodeID
	// Sign produces ⟨msg⟩_X's signature bytes.
	Sign(msg []byte) ([]byte, error)
	// SignAppend appends the signature Sign would produce to dst and
	// returns the extended slice; msg may alias dst's contents. It is how
	// a message is signed inside the buffer it was encoded into.
	SignAppend(dst, msg []byte) ([]byte, error)
	// Decrypt opens a ciphertext produced with Encrypt for this node into
	// a fresh slice: DecryptAppend(nil, ciphertext).
	Decrypt(ciphertext []byte) ([]byte, error)
	// DecryptAppend opens a ciphertext produced with Encrypt for this node,
	// appends the plaintext to dst and returns the extended slice. It is
	// how a message is opened into a buffer the receiver already has; dst's
	// spare capacity must not overlap ciphertext.
	DecryptAppend(dst, ciphertext []byte) ([]byte, error)
	// Counter returns the identity's operation counter (never nil).
	Counter() *Counter
}

// Suite creates identities and performs public-side operations. A Suite
// plays the role of the external key service the paper assumes ("Nodes
// interested in a content have to obtain the public key of its source
// using an external service", §III).
type Suite interface {
	// Name identifies the suite ("rsa-2048", "fast").
	Name() string
	// NewIdentity creates key material for a node.
	NewIdentity(id model.NodeID) (Identity, error)
	// Verify checks a signature allegedly produced by signer over msg.
	Verify(signer model.NodeID, msg, sig []byte) error
	// Encrypt produces {msg}_pk(to).
	Encrypt(to model.NodeID, msg []byte) ([]byte, error)
	// SignatureSize returns the fixed signature length in bytes.
	SignatureSize() int
	// CiphertextOverhead returns len(Encrypt(m)) - len(m).
	CiphertextOverhead() int
}

// ---------------------------------------------------------------------------
// RSA suite
// ---------------------------------------------------------------------------

// DefaultRSABits is the paper's signature key size (§VII-A).
const DefaultRSABits = 2048

const (
	_gcmNonceLen = 12
	_gcmTagLen   = 16
	_aesKeyLen   = 32
)

// RSASuite implements Suite with real RSA keys.
type RSASuite struct {
	bits int

	mu   sync.RWMutex
	pubs map[model.NodeID]*rsa.PublicKey
}

var _ Suite = (*RSASuite)(nil)

// NewRSASuite creates an RSA suite with the given key size (use
// DefaultRSABits for the paper's setting; tests may use 1024 for speed).
func NewRSASuite(bits int) *RSASuite {
	return &RSASuite{bits: bits, pubs: make(map[model.NodeID]*rsa.PublicKey)}
}

// Name implements Suite.
func (s *RSASuite) Name() string { return fmt.Sprintf("rsa-%d", s.bits) }

// SignatureSize implements Suite.
func (s *RSASuite) SignatureSize() int { return s.bits / 8 }

// CiphertextOverhead implements Suite: one RSA block for the wrapped AES
// key, the GCM nonce and the GCM tag.
func (s *RSASuite) CiphertextOverhead() int {
	return s.bits/8 + _gcmNonceLen + _gcmTagLen
}

// NewIdentity implements Suite.
func (s *RSASuite) NewIdentity(id model.NodeID) (Identity, error) {
	if id == model.NoNode {
		return nil, errors.New("pki: cannot create identity for NoNode")
	}
	key, err := rsa.GenerateKey(rand.Reader, s.bits)
	if err != nil {
		return nil, fmt.Errorf("pki: generating RSA key: %w", err)
	}
	s.mu.Lock()
	s.pubs[id] = &key.PublicKey
	s.mu.Unlock()
	return &rsaIdentity{id: id, key: key, suite: s}, nil
}

func (s *RSASuite) publicKey(id model.NodeID) (*rsa.PublicKey, error) {
	s.mu.RLock()
	pub, ok := s.pubs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return pub, nil
}

// Verify implements Suite.
func (s *RSASuite) Verify(signer model.NodeID, msg, sig []byte) error {
	pub, err := s.publicKey(signer)
	if err != nil {
		return err
	}
	digest := sha256.Sum256(msg)
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest[:], sig); err != nil {
		return ErrBadSignature
	}
	return nil
}

// Encrypt implements Suite: hybrid RSA-OAEP(AES key) || nonce || GCM(msg).
func (s *RSASuite) Encrypt(to model.NodeID, msg []byte) ([]byte, error) {
	pub, err := s.publicKey(to)
	if err != nil {
		return nil, err
	}
	aesKey := make([]byte, _aesKeyLen)
	if _, err := rand.Read(aesKey); err != nil {
		return nil, fmt.Errorf("pki: drawing session key: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, aesKey, nil)
	if err != nil {
		return nil, fmt.Errorf("pki: wrapping session key: %w", err)
	}
	sealed, nonce, err := gcmSeal(aesKey, msg)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(wrapped)+len(nonce)+len(sealed))
	out = append(out, wrapped...)
	out = append(out, nonce...)
	out = append(out, sealed...)
	return out, nil
}

type rsaIdentity struct {
	id    model.NodeID
	key   *rsa.PrivateKey
	suite *RSASuite
	ops   Counter
}

func (r *rsaIdentity) NodeID() model.NodeID { return r.id }
func (r *rsaIdentity) Counter() *Counter    { return &r.ops }

func (r *rsaIdentity) Sign(msg []byte) ([]byte, error) {
	r.ops.signs.Add(1)
	digest := sha256.Sum256(msg)
	sig, err := rsa.SignPKCS1v15(rand.Reader, r.key, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("pki: signing: %w", err)
	}
	return sig, nil
}

func (r *rsaIdentity) SignAppend(dst, msg []byte) ([]byte, error) {
	sig, err := r.Sign(msg)
	return append(dst, sig...), err
}

func (r *rsaIdentity) Decrypt(ciphertext []byte) ([]byte, error) {
	return r.DecryptAppend(nil, ciphertext)
}

func (r *rsaIdentity) DecryptAppend(dst, ciphertext []byte) ([]byte, error) {
	r.ops.decrypts.Add(1)
	blockLen := r.suite.bits / 8
	if len(ciphertext) < blockLen+_gcmNonceLen+_gcmTagLen {
		return nil, ErrBadCiphertext
	}
	aesKey, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, r.key,
		ciphertext[:blockLen], nil)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	nonce := ciphertext[blockLen : blockLen+_gcmNonceLen]
	return gcmOpen(dst, aesKey, nonce, ciphertext[blockLen+_gcmNonceLen:])
}

// ---------------------------------------------------------------------------
// Fast suite
// ---------------------------------------------------------------------------

// FastSuite implements Suite with symmetric primitives but RSA-shaped
// outputs. It keeps the tamper-evidence the protocol logic relies on
// (forged or altered messages still fail verification) while making
// thousand-node simulations cheap.
type FastSuite struct {
	sigSize  int
	wrapSize int

	mu   sync.RWMutex
	keys map[model.NodeID]*fastKey
}

var _ Suite = (*FastSuite)(nil)

// fastKey is one identity's keyed state, built once and shared by the
// identity (sign, decrypt) and the suite (verify, encrypt to it).
type fastKey struct {
	// macs pools HMAC-SHA256 states keyed with the node secret. An HMAC
	// is Reset, not rebuilt, between messages; the pool (rather than one
	// shared state) is what lets the parallel engine's shards sign and
	// verify under the same identity at once.
	macs sync.Pool
	// aead is AES-GCM under the key the node receives ciphertexts with.
	// A cipher.AEAD is stateless after construction, so one serves every
	// concurrent Encrypt and Decrypt.
	aead cipher.AEAD
}

// macState is one pooled HMAC with the scratch its tag is summed into
// (kept beside it so computing a tag allocates nothing).
type macState struct {
	h   hash.Hash
	tag [sha256.Size]byte
}

func newFastKey(secret []byte) (*fastKey, error) {
	// The receive key is derived from the secret, never the secret itself.
	kdf := hmac.New(sha256.New, secret)
	kdf.Write([]byte("pag-enc-key"))
	block, err := aes.NewCipher(kdf.Sum(nil))
	if err != nil {
		return nil, fmt.Errorf("pki: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pki: gcm: %w", err)
	}
	k := &fastKey{aead: aead}
	k.macs.New = func() any { return &macState{h: hmac.New(sha256.New, secret)} }
	return k, nil
}

// mac computes HMAC(secret, msg) into a pooled state's tag; the caller
// reads it and hands the state back with done.
func (k *fastKey) mac(msg []byte) *macState {
	st := k.macs.Get().(*macState)
	st.h.Write(msg)
	st.h.Sum(st.tag[:0])
	return st
}

func (k *fastKey) done(st *macState) {
	st.h.Reset()
	k.macs.Put(st)
}

// NewFastSuite creates a FastSuite mimicking RSA-2048 sizes.
func NewFastSuite() *FastSuite {
	return &FastSuite{
		sigSize:  DefaultRSABits / 8,
		wrapSize: DefaultRSABits / 8,
		keys:     make(map[model.NodeID]*fastKey),
	}
}

// Name implements Suite.
func (s *FastSuite) Name() string { return "fast" }

// SignatureSize implements Suite.
func (s *FastSuite) SignatureSize() int { return s.sigSize }

// CiphertextOverhead implements Suite.
func (s *FastSuite) CiphertextOverhead() int {
	return s.wrapSize + _gcmNonceLen + _gcmTagLen
}

// NewIdentity implements Suite.
func (s *FastSuite) NewIdentity(id model.NodeID) (Identity, error) {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("pki: drawing node secret: %w", err)
	}
	return s.register(id, secret)
}

// NewDeterministicIdentity derives a node's key material from a shared
// seed, so that independent processes of a deployment agree on everyone's
// verification material without a key-exchange service. Simulation/testbed
// use only: anyone knowing the seed can impersonate any node.
func (s *FastSuite) NewDeterministicIdentity(id model.NodeID, seed uint64) (Identity, error) {
	h := sha256.New()
	var buf [12]byte
	binary.BigEndian.PutUint64(buf[:8], seed)
	binary.BigEndian.PutUint32(buf[8:], uint32(id))
	h.Write([]byte("pag-node-secret"))
	h.Write(buf[:])
	return s.register(id, h.Sum(nil))
}

// register builds the keyed state for a node secret and publishes it.
func (s *FastSuite) register(id model.NodeID, secret []byte) (Identity, error) {
	if id == model.NoNode {
		return nil, errors.New("pki: cannot create identity for NoNode")
	}
	key, err := newFastKey(secret)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.keys[id] = key
	s.mu.Unlock()
	return &fastIdentity{id: id, key: key, suite: s}, nil
}

func (s *FastSuite) key(id model.NodeID) (*fastKey, error) {
	s.mu.RLock()
	key, ok := s.keys[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownNode, id)
	}
	return key, nil
}

// Verify implements Suite. A signature is the 32-byte tag repeated to the
// RSA signature width (see SignAppend); it is checked block by block
// against the tag, with no padded copy built.
func (s *FastSuite) Verify(signer model.NodeID, msg, sig []byte) error {
	key, err := s.key(signer)
	if err != nil {
		return err
	}
	ok := 0
	if len(sig) == s.sigSize {
		ok = 1
	}
	st := key.mac(msg)
	for len(sig) > 0 {
		n := min(len(sig), len(st.tag))
		ok &= subtle.ConstantTimeCompare(sig[:n], st.tag[:n])
		sig = sig[n:]
	}
	key.done(st)
	if ok != 1 {
		return ErrBadSignature
	}
	return nil
}

// Encrypt implements Suite: zero-filled fake key-wrap block (size parity
// with RSA) || nonce || GCM(msg) under the recipient's derived key, sealed
// into one exact-size allocation.
func (s *FastSuite) Encrypt(to model.NodeID, msg []byte) ([]byte, error) {
	key, err := s.key(to)
	if err != nil {
		return nil, err
	}
	head := s.wrapSize + _gcmNonceLen
	out := make([]byte, head, head+len(msg)+_gcmTagLen)
	nonce := out[s.wrapSize:head]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("pki: drawing nonce: %w", err)
	}
	return key.aead.Seal(out, nonce, msg, nil), nil
}

type fastIdentity struct {
	id    model.NodeID
	key   *fastKey
	suite *FastSuite
	ops   Counter
}

func (f *fastIdentity) NodeID() model.NodeID { return f.id }
func (f *fastIdentity) Counter() *Counter    { return &f.ops }

func (f *fastIdentity) Sign(msg []byte) ([]byte, error) {
	return f.SignAppend(make([]byte, 0, f.suite.sigSize), msg)
}

// SignAppend implements Identity: the HMAC tag, repeated (the last copy
// truncated) to the RSA signature width so wire sizes — and therefore all
// bandwidth measurements — match the real suite.
func (f *fastIdentity) SignAppend(dst, msg []byte) ([]byte, error) {
	f.ops.signs.Add(1)
	st := f.key.mac(msg)
	for left := f.suite.sigSize; left > 0; left -= len(st.tag) {
		dst = append(dst, st.tag[:min(left, len(st.tag))]...)
	}
	f.key.done(st)
	return dst, nil
}

func (f *fastIdentity) Decrypt(ciphertext []byte) ([]byte, error) {
	return f.DecryptAppend(nil, ciphertext)
}

func (f *fastIdentity) DecryptAppend(dst, ciphertext []byte) ([]byte, error) {
	f.ops.decrypts.Add(1)
	head := f.suite.wrapSize + _gcmNonceLen
	if len(ciphertext) < head+_gcmTagLen {
		return nil, ErrBadCiphertext
	}
	out, err := f.key.aead.Open(dst, ciphertext[f.suite.wrapSize:head], ciphertext[head:], nil)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

// VerifyCounted wraps suite.Verify, attributing the verification to ops.
func VerifyCounted(suite Suite, ops *Counter, signer model.NodeID, msg, sig []byte) error {
	if ops != nil {
		ops.verifies.Add(1)
	}
	return suite.Verify(signer, msg, sig)
}

// EncryptCounted wraps suite.Encrypt, attributing the encryption to ops.
func EncryptCounted(suite Suite, ops *Counter, to model.NodeID, msg []byte) ([]byte, error) {
	if ops != nil {
		ops.encrypts.Add(1)
	}
	return suite.Encrypt(to, msg)
}

func gcmSeal(key, msg []byte) (sealed, nonce []byte, err error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, fmt.Errorf("pki: gcm: %w", err)
	}
	nonce = make([]byte, _gcmNonceLen)
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, fmt.Errorf("pki: drawing nonce: %w", err)
	}
	return gcm.Seal(nil, nonce, msg, nil), nonce, nil
}

func gcmOpen(dst, key, nonce, sealed []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("pki: aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pki: gcm: %w", err)
	}
	out, err := gcm.Open(dst, nonce, sealed, nil)
	if err != nil {
		return nil, ErrBadCiphertext
	}
	return out, nil
}
