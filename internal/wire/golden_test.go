package wire

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/pki"
)

// goldenIdentity is the fixed key every golden encoding is signed with.
func goldenIdentity(t *testing.T) pki.Identity {
	t.Helper()
	id, err := pki.NewFastSuite().NewDeterministicIdentity(7, 2016)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestGoldenWireBytes pins the wire format and the signature bytes: each
// sample message, sealed under a fixed deterministic identity, must equal
// the encoding recorded from the commit before the one-pass message path
// (sign the re-encoded body, set Sig, Marshal). testdata/golden_wire.txt
// holds one "Kind hex" line per sample, in sampleMessages order.
func TestGoldenWireBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSpace(string(raw)), "\n")
	samples := sampleMessages()
	if len(golden) != len(samples) {
		t.Fatalf("%d golden lines for %d samples", len(golden), len(samples))
	}
	id := goldenIdentity(t)
	w := GetWriter()
	defer w.Release()
	for i, m := range samples {
		sealed, err := Seal(w, m, id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%s %x", KindName(m.Kind()), sealed); got != golden[i] {
			t.Errorf("sample %d (%T) encodes differently from the recorded bytes:\n got %s\nwant %s", i, m, got, golden[i])
		}
	}
}
