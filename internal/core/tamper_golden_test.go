package core_test

// tamperVerdictsAtParent is TestTamperSweepVerdicts' tally as recorded at
// the parent of the one-pass message path (commit 99f3a5e), where every
// signature was checked over a re-encoding of the decoded message. The
// KeyResponse row alone is newer (see there).
var tamperVerdictsAtParent = map[string]map[string]int{
	"Accusation": {
		"BadMessage/bad signature on Accusation/n2": 1515,
		"dropped silently":                          17,
	},
	"Ack": {
		"BadMessage/bad signature on Ack/n2": 272,
		"BadMessage/malformed Ack/n2":        17,
		"dropped silently":                   8,
	},
	"AckCopy": {
		"BadMessage/bad signature on AckCopy/n2": 284,
		"dropped silently":                       13,
	},
	"AckExhibit": {
		"BadMessage/bad signature on AckExhibit/n2": 566,
		"dropped silently":                          13,
	},
	"AckForward": {
		"BadMessage/bad signature on AckRelay/n2": 561,
		"dropped silently":                        13,
	},
	"AckRequest": {
		"BadMessage/bad signature on AckRequest/n2": 260,
		"dropped silently":                          17,
	},
	"AttForward": {
		"BadMessage/bad signature on AttForward/n2": 582,
		"ciphertext: dropped silently":              627,
		"dropped silently":                          17,
	},
	"Attestation": {
		"BadMessage/bad signature on Attestation/n2": 288,
		"BadMessage/malformed Attestation/n2":        21,
		"dropped silently":                           8,
	},
	"Confirm": {
		"BadMessage/bad signature on AckRelay/n2": 561,
		"dropped silently":                        13,
	},
	"HashShare": {
		"BadMessage/bad signature on HashShare/n2": 601,
		"dropped silently":                         21,
	},
	"KeyRequest": {
		"BadMessage/bad signature on KeyRequest/n2": 256,
		"BadMessage/malformed KeyRequest/n2":        13,
		"dropped silently":                          8,
	},
	"KeyResponse": {
		// Re-recorded when the buffermap became 64-bit tags: the sample
		// carries two adjacent tags (…0706, …0707) in 16 bytes where it
		// carried one length-prefixed 16-byte value in 20, so the body
		// and the ciphertext are 4 bytes shorter (334 → 330). Every flip
		// in the second tag and the last-byte flip of the first break the
		// strict ascending order, which is a decoding error (25 − 4 length
		// bytes + 9 = 30); the other 7 tag bytes, the prime byte and the
		// 256 signature bytes still decode and fail the signature (264).
		"BadMessage/bad signature on KeyResponse/n2":          264,
		"BadMessage/malformed KeyResponse/n2":                 30,
		"ciphertext: BadMessage/undecryptable KeyResponse/n2": 330,
		"dropped silently":                                    8,
	},
	"Nack": {
		"BadMessage/bad signature on Nack/n2": 272,
		"dropped silently":                    9,
	},
	"NodeDigest": {
		"BadMessage/bad signature on NodeDigest/n2": 280,
		"dropped silently":                          13,
	},
	"Probe": {
		"BadMessage/bad signature on Probe/n2": 1507,
		"dropped silently":                     25,
	},
	"Serve": {
		"BadMessage/bad signature on Serve/n2":          605,
		"BadMessage/malformed Serve/n2":                 33,
		"ciphertext: BadMessage/undecryptable Serve/n2": 674,
		"dropped silently":                              8,
	},
}
