package ope

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"datablinder/internal/crypto/primitives"
)

// knownAnswers is testdata/known_answers.json: ciphertexts under two fixed
// keys, recorded once from the math/big implementation of the cipher. The
// stored range indexes depend on every byte, so the file is never
// regenerated; a mismatch is a bug in the cipher.
type knownAnswers struct {
	Keys   []string `json:"keys"`
	Uint64 []struct {
		Key int    `json:"key"`
		M   uint64 `json:"m"`
		CT  string `json:"ct"`
	} `json:"uint64"`
	Int64 []struct {
		Key int    `json:"key"`
		V   int64  `json:"v"`
		CT  string `json:"ct"`
	} `json:"int64"`
}

func TestKnownAnswers(t *testing.T) {
	raw, err := os.ReadFile("testdata/known_answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var ka knownAnswers
	if err := json.Unmarshal(raw, &ka); err != nil {
		t.Fatal(err)
	}
	ciphers := make([]*Cipher, len(ka.Keys))
	for i, kh := range ka.Keys {
		kb, err := hex.DecodeString(kh)
		if err != nil {
			t.Fatal(err)
		}
		k, err := primitives.KeyFromBytes(kb)
		if err != nil {
			t.Fatal(err)
		}
		ciphers[i] = New(k)
	}
	if len(ka.Uint64) != 64 || len(ka.Int64) != 14 {
		t.Fatalf("known-answer file has %d uint64 and %d int64 cases, want 64 and 14", len(ka.Uint64), len(ka.Int64))
	}
	for _, tc := range ka.Uint64 {
		c := ciphers[tc.Key]
		if got := hex.EncodeToString(c.EncryptUint64(tc.M)); got != tc.CT {
			t.Errorf("key %d: EncryptUint64(%d) = %s, want %s", tc.Key, tc.M, got, tc.CT)
			continue
		}
		ct, _ := hex.DecodeString(tc.CT)
		if got, err := c.DecryptUint64(ct); err != nil || got != tc.M {
			t.Errorf("key %d: DecryptUint64(%s) = %d, %v, want %d", tc.Key, tc.CT, got, err, tc.M)
		}
	}
	for _, tc := range ka.Int64 {
		c := ciphers[tc.Key]
		if got := hex.EncodeToString(c.EncryptInt64(tc.V)); got != tc.CT {
			t.Errorf("key %d: EncryptInt64(%d) = %s, want %s", tc.Key, tc.V, got, tc.CT)
			continue
		}
		ct, _ := hex.DecodeString(tc.CT)
		if got, err := c.DecryptInt64(ct); err != nil || got != tc.V {
			t.Errorf("key %d: DecryptInt64(%s) = %d, %v, want %d", tc.Key, tc.CT, got, err, tc.V)
		}
	}
}
