package pki

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/model"
)

// suites returns both suite implementations so every behavioural test runs
// against each (size parity between them is itself a tested property).
func suites(t *testing.T) map[string]Suite {
	t.Helper()
	return map[string]Suite{
		"rsa":  NewRSASuite(1024), // small keys keep tests fast
		"fast": NewFastSuite(),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, err := s.NewIdentity(1)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("Serve, R, A, B, ...")
			sig, err := id.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if len(sig) != s.SignatureSize() {
				t.Fatalf("signature %d bytes, want %d", len(sig), s.SignatureSize())
			}
			if err := s.Verify(1, msg, sig); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := []byte("original")
			sig, _ := id.Sign(msg)
			if err := s.Verify(1, []byte("tampered"), sig); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("tampered message: err = %v, want ErrBadSignature", err)
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := []byte("message")
			sig, _ := id.Sign(msg)
			sig[0] ^= 0xFF
			if err := s.Verify(1, msg, sig); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("tampered signature: err = %v", err)
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := s.NewIdentity(1)
			if _, err := s.NewIdentity(2); err != nil {
				t.Fatal(err)
			}
			msg := []byte("message")
			sig, _ := a.Sign(msg)
			if err := s.Verify(2, msg, sig); !errors.Is(err, ErrBadSignature) {
				t.Fatalf("wrong signer: err = %v", err)
			}
		})
	}
}

func TestVerifyUnknownNode(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Verify(99, []byte("m"), []byte("sig")); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("err = %v, want ErrUnknownNode", err)
			}
			if _, err := s.Encrypt(99, []byte("m")); !errors.Is(err, ErrUnknownNode) {
				t.Fatalf("Encrypt err = %v, want ErrUnknownNode", err)
			}
		})
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := bytes.Repeat([]byte{0xAB}, model.UpdateBytes) // update-sized
			ct, err := s.Encrypt(1, msg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(ct)-len(msg), s.CiphertextOverhead(); got != want {
				t.Fatalf("ciphertext overhead %d, want %d", got, want)
			}
			pt, err := id.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatal("round-trip mismatch")
			}
		})
	}
}

// TestDecryptAppend: the plaintext is appended to what dst already holds,
// inside dst's storage when it has room, and Decrypt is the dst == nil
// case; a rejected ciphertext returns no slice.
func TestDecryptAppend(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := bytes.Repeat([]byte{0xAB}, model.UpdateBytes)
			ct, err := s.Encrypt(1, msg)
			if err != nil {
				t.Fatal(err)
			}
			dst := append(make([]byte, 0, 4+len(msg)), "head"...)
			got, err := id.DecryptAppend(dst, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte("head"), msg...)) {
				t.Fatal("DecryptAppend did not append the plaintext to dst")
			}
			if &got[0] != &dst[0] {
				t.Fatal("DecryptAppend left dst's storage although it had room")
			}
			if before := id.Counter().Decrypts(); before != 1 {
				t.Fatalf("one DecryptAppend counted %d decryptions", before)
			}
			ct[len(ct)-1] ^= 0x01
			if got, err := id.DecryptAppend(dst, ct); !errors.Is(err, ErrBadCiphertext) || got != nil {
				t.Fatalf("tampered ciphertext: %d bytes, err = %v", len(got), err)
			}
		})
	}
}

// TestEncryptAppend: the ciphertext is appended to what dst already
// holds, inside dst's storage when it has room, CiphertextOverhead still
// sizes it, and it opens to the message.
func TestEncryptAppend(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			msg := bytes.Repeat([]byte{0xAB}, model.UpdateBytes)
			head := []byte("head")
			dst := append(make([]byte, 0, len(head)+len(msg)+s.CiphertextOverhead()), head...)
			got, err := s.EncryptAppend(dst, 1, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(head)], head) {
				t.Fatal("EncryptAppend overwrote what dst held")
			}
			if &got[0] != &dst[0] {
				t.Fatal("EncryptAppend left dst's storage although it had room")
			}
			ct := got[len(head):]
			if n, want := len(ct)-len(msg), s.CiphertextOverhead(); n != want {
				t.Fatalf("ciphertext overhead %d, want %d", n, want)
			}
			if pt, err := id.Decrypt(ct); err != nil || !bytes.Equal(pt, msg) {
				t.Fatalf("appended ciphertext opens to %d bytes, err = %v", len(pt), err)
			}

			// No room: dst's contents move to a grown buffer.
			got, err = s.EncryptAppend(head, 1, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(head)], head) {
				t.Fatalf("grown EncryptAppend: prefix %q", got[:len(head)])
			}
			if pt, err := id.Decrypt(got[len(head):]); err != nil || !bytes.Equal(pt, msg) {
				t.Fatalf("grown ciphertext opens to %d bytes, err = %v", len(pt), err)
			}
		})
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			ct, _ := s.Encrypt(1, []byte("private update"))
			ct[len(ct)-1] ^= 0x01
			if _, err := id.Decrypt(ct); !errors.Is(err, ErrBadCiphertext) {
				t.Fatalf("err = %v, want ErrBadCiphertext", err)
			}
		})
	}
}

func TestDecryptRejectsShortCiphertext(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			if _, err := id.Decrypt([]byte{1, 2, 3}); !errors.Is(err, ErrBadCiphertext) {
				t.Fatalf("err = %v, want ErrBadCiphertext", err)
			}
		})
	}
}

func TestDecryptWrongRecipient(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.NewIdentity(1); err != nil {
				t.Fatal(err)
			}
			b, _ := s.NewIdentity(2)
			ct, _ := s.Encrypt(1, []byte("for node 1 only"))
			if _, err := b.Decrypt(ct); err == nil {
				t.Fatal("node 2 decrypted node 1's ciphertext")
			}
		})
	}
}

func TestNoNodeIdentityRejected(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.NewIdentity(model.NoNode); err == nil {
				t.Fatal("NoNode identity accepted")
			}
		})
	}
}

// TestSizeParity is the property the FastSuite substitution rests on: both
// suites must produce identical signature sizes and ciphertext overheads,
// because the paper's headline metric is bandwidth.
func TestSizeParity(t *testing.T) {
	real := NewRSASuite(DefaultRSABits)
	fast := NewFastSuite()
	if real.SignatureSize() != fast.SignatureSize() {
		t.Fatalf("signature sizes differ: %d vs %d",
			real.SignatureSize(), fast.SignatureSize())
	}
	if real.CiphertextOverhead() != fast.CiphertextOverhead() {
		t.Fatalf("ciphertext overheads differ: %d vs %d",
			real.CiphertextOverhead(), fast.CiphertextOverhead())
	}
	// Paper: "Signatures are generated using RSA-2048" → 256 bytes.
	if real.SignatureSize() != 256 {
		t.Fatalf("RSA-2048 signature = %d bytes, want 256", real.SignatureSize())
	}
}

func TestCounters(t *testing.T) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	ops := id.Counter()

	if _, err := id.Sign([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if got := ops.Signs(); got != 1 {
		t.Fatalf("Signs = %d, want 1", got)
	}

	sig, _ := id.Sign([]byte("m2"))
	if err := VerifyCounted(s, ops, 1, []byte("m2"), sig); err != nil {
		t.Fatal(err)
	}
	if got := ops.Verifies(); got != 1 {
		t.Fatalf("Verifies = %d, want 1", got)
	}

	ct, err := EncryptCounted(s, ops, nil, 1, []byte("m3"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ops.Encrypts(); got != 1 {
		t.Fatalf("Encrypts = %d, want 1", got)
	}
	if _, err := id.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	if got := ops.Decrypts(); got != 1 {
		t.Fatalf("Decrypts = %d, want 1", got)
	}

	ops.Reset()
	if ops.Signs()+ops.Verifies()+ops.Encrypts()+ops.Decrypts() != 0 {
		t.Fatal("Reset failed")
	}

	var nilC *Counter
	if nilC.Signs()+nilC.Verifies()+nilC.Encrypts()+nilC.Decrypts() != 0 {
		t.Fatal("nil counter should read zero")
	}
	nilC.Reset()
}

func TestSuiteNames(t *testing.T) {
	if got := NewRSASuite(2048).Name(); got != "rsa-2048" {
		t.Fatalf("Name = %q", got)
	}
	if got := NewFastSuite().Name(); got != "fast" {
		t.Fatalf("Name = %q", got)
	}
}

func TestEmptyMessageEncrypt(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			ct, err := s.Encrypt(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := id.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if len(pt) != 0 {
				t.Fatalf("decrypted %d bytes, want 0", len(pt))
			}
		})
	}
}

func BenchmarkRSASign2048(b *testing.B) {
	s := NewRSASuite(DefaultRSABits)
	id, err := s.NewIdentity(1)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastSign(b *testing.B) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// SignAppend is Sign into the caller's buffer: same bytes, appended after
// whatever dst holds, also when the message is dst's own contents (the way
// wire.Writer.Sign calls it).
func TestSignAppendMatchesSign(t *testing.T) {
	for name, s := range suites(t) {
		t.Run(name, func(t *testing.T) {
			id, _ := s.NewIdentity(1)
			buf := append(make([]byte, 0, 16), "a message body"...)
			want, err := id.Sign(buf)
			if err != nil {
				t.Fatal(err)
			}
			got, err := id.SignAppend(buf, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(buf)], buf) || !bytes.Equal(got[len(buf):], want) {
				t.Fatal("SignAppend is not dst followed by Sign's signature")
			}
			if err := s.Verify(1, buf, got[len(buf):]); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FastSuite.Verify compares the signature block by block against the
// 32-byte tag instead of against a padded copy: every single-byte change
// and every wrong length must still be rejected.
func TestFastVerifyRejectsEveryByteFlip(t *testing.T) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	msg := []byte("message")
	sig, _ := id.Sign(msg)
	for i := range sig {
		bad := bytes.Clone(sig)
		bad[i] ^= 0x01
		if err := s.Verify(1, msg, bad); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("flip of signature byte %d accepted", i)
		}
	}
	for _, bad := range [][]byte{nil, sig[:32], sig[:len(sig)-1], append(bytes.Clone(sig), sig[:32]...)} {
		if err := s.Verify(1, msg, bad); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("signature of %d bytes accepted", len(bad))
		}
	}
}

// The keyed state is per identity and pooled: the hot operations allocate
// only what they return. (The race detector bypasses sync.Pool; the race
// job runs -short.)
func TestFastSuiteAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need the pool")
	}
	s := NewFastSuite()
	alice, _ := s.NewIdentity(1)
	bob, _ := s.NewIdentity(2)
	msg := make([]byte, 1024)
	sig, _ := alice.Sign(msg)
	ct, _ := s.Encrypt(2, msg)
	buf := make([]byte, 0, len(msg)+s.SignatureSize())
	for _, c := range []struct {
		name   string
		budget float64
		op     func()
	}{
		{"Sign", 1, func() { _, _ = alice.Sign(msg) }},
		{"SignAppend", 0, func() { _, _ = alice.SignAppend(buf, msg) }},
		{"Verify", 0, func() { _ = s.Verify(1, msg, sig) }},
		{"Encrypt", 2, func() { _, _ = s.Encrypt(2, msg) }},
		{"Decrypt", 1, func() { _, _ = bob.Decrypt(ct) }},
		{"DecryptAppend", 0, func() { _, _ = bob.DecryptAppend(buf, ct) }},
	} {
		if got := testing.AllocsPerRun(200, c.op); got > c.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", c.name, got, c.budget)
		}
	}
}

// One signer's keyed state serves the round engine's shards at once:
// concurrent Sign, Verify, Encrypt and Decrypt under one identity agree
// with the serial results (run under -race).
func TestFastSuiteConcurrentUse(t *testing.T) {
	s := NewFastSuite()
	id, _ := s.NewIdentity(1)
	msgs := make([][]byte, 8)
	sigs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = bytes.Repeat([]byte{byte(i)}, 100+i)
		sigs[i], _ = id.Sign(msgs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % len(msgs)
				if err := s.Verify(1, msgs[k], sigs[k]); err != nil {
					t.Errorf("concurrent Verify rejected a good signature: %v", err)
					return
				}
				if s.Verify(1, msgs[k], sigs[(k+1)%len(sigs)]) == nil {
					t.Error("concurrent Verify accepted another message's signature")
					return
				}
				if sig, _ := id.Sign(msgs[k]); !bytes.Equal(sig, sigs[k]) {
					t.Error("concurrent Sign produced a different signature")
					return
				}
				ct, err := s.Encrypt(1, msgs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if pt, err := id.Decrypt(ct); err != nil || !bytes.Equal(pt, msgs[k]) {
					t.Errorf("concurrent Encrypt/Decrypt round trip failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
