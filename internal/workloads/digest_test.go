package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"teasim/internal/isa"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/programs.sha256 from the current generators")

const digestFile = "testdata/programs.sha256"

// programDigest hashes everything a simulation reads from a program: the
// code base, the entry point, every instruction and every data segment.
func programDigest(p *isa.Program) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(p.CodeBase)
	put(p.Entry)
	put(uint64(len(p.Code)))
	for _, in := range p.Code {
		h.Write([]byte{byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2)})
		put(uint64(in.Imm))
	}
	put(uint64(len(p.Data)))
	for _, seg := range p.Data {
		put(seg.Addr)
		put(uint64(len(seg.Bytes)))
		h.Write(seg.Bytes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestProgramDigests pins every kernel's scale-0 and scale-1 program, code
// and data, to the digests in testdata/programs.sha256. A generator may be
// rewritten for speed only if every program it emits stays byte-identical;
// -update regenerates the file, which is a change to every result.
func TestProgramDigests(t *testing.T) {
	var got []string
	for _, w := range All() {
		for scale := 0; scale <= 1; scale++ {
			got = append(got, fmt.Sprintf("%s %d %s", w.Name, scale, programDigest(w.Build(scale))))
		}
	}
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d programs, %s lists %d", len(got), digestFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("program digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
