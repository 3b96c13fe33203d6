package snapshot

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// external stands in for observability wiring (a tracer): skip-listed,
// never captured, never touched on restore.
type external struct{ n int }

type inner struct {
	counts []uint64
	label  string
}

type synth struct {
	a, b   int
	ring   [4]uint64
	pods   []float64
	in     *inner
	shared *inner // aliases in when set up that way
	ext    *external
	m      map[uint8]int32
	hook   func() int
	nilPtr *inner
}

func newSynth() *synth {
	in := &inner{counts: []uint64{1, 2, 3}, label: "warm"}
	return &synth{
		a: 1, b: 2,
		ring: [4]uint64{9, 8, 7, 6},
		pods: []float64{0.5, 1.5},
		in:   in, shared: in,
		ext:  &external{n: 42},
		m:    map[uint8]int32{1: 10, 2: 20},
		hook: func() int { return 7 },
	}
}

var skipExternal = reflect.TypeOf((*external)(nil))

func mutate(s *synth) {
	s.a, s.b = 100, 200
	s.ring = [4]uint64{0, 0, 0, 0}
	s.pods[0] = -1
	s.in.counts[1] = 99
	s.in.label = "cold"
	s.m[1] = -5
	s.m[3] = 30
	delete(s.m, 2)
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	c := NewCodec(skipExternal)
	s := newSynth()
	img, err := c.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	mutate(s)
	s.ext.n = 77 // external state must survive restore untouched
	if err := c.Restore(img, s); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want := newSynth()
	if s.a != want.a || s.b != want.b || s.ring != want.ring {
		t.Errorf("scalars/arrays not restored: %+v", s)
	}
	if !reflect.DeepEqual(s.pods, want.pods) {
		t.Errorf("pod slice not restored: %v", s.pods)
	}
	if !reflect.DeepEqual(s.in, want.in) {
		t.Errorf("inner not restored: %+v", s.in)
	}
	if !reflect.DeepEqual(s.m, want.m) {
		t.Errorf("map not restored: %v", s.m)
	}
	if s.ext.n != 77 {
		t.Errorf("skip-listed external was touched: %d", s.ext.n)
	}
	if s.shared != s.in {
		t.Errorf("aliasing broken: shared != in")
	}
	if img.Bytes() == 0 {
		t.Errorf("image reports zero bytes")
	}
}

// A restore into a second instance with the same shape must work and
// must preserve the target's own aliasing.
func TestRestoreIntoSibling(t *testing.T) {
	c := NewCodec(skipExternal)
	src := newSynth()
	src.in.counts[0] = 1234
	img, err := c.Capture(src)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	dst := newSynth()
	mutate(dst)
	if err := c.Restore(img, dst); err != nil {
		t.Fatalf("restore into sibling: %v", err)
	}
	if dst.in.counts[0] != 1234 {
		t.Errorf("sibling restore missed inner state: %v", dst.in.counts)
	}
	if dst.shared != dst.in {
		t.Errorf("sibling aliasing broken")
	}
}

// Restoring from the same image twice must be idempotent — the image is
// read-only and shared.
func TestRestoreTwice(t *testing.T) {
	c := NewCodec(skipExternal)
	s := newSynth()
	img, err := c.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	for i := 0; i < 2; i++ {
		mutate(s)
		if err := c.Restore(img, s); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
	}
	if s.a != 1 || s.in.label != "warm" || len(s.m) != 2 {
		t.Errorf("second restore diverged: %+v", s)
	}
}

func TestShapeMismatches(t *testing.T) {
	c := NewCodec(skipExternal)
	s := newSynth()
	img, err := c.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}

	nilled := newSynth()
	nilled.in, nilled.shared = nil, nil
	if err := c.Restore(img, nilled); err == nil {
		t.Errorf("restore over nil pointer: want error")
	}

	unaliased := newSynth()
	unaliased.shared = &inner{counts: []uint64{1, 2, 3}}
	if err := c.Restore(img, unaliased); err == nil {
		t.Errorf("restore over broken aliasing: want error")
	}

	nilMap := newSynth()
	nilMap.m = nil
	if err := c.Restore(img, nilMap); err == nil {
		t.Errorf("restore over nil map: want error")
	}

	type other struct{ x, y, z uint64 }
	if err := c.Restore(img, &other{}); err == nil {
		t.Errorf("restore into different type: want error")
	}
}

func TestUnsupportedKinds(t *testing.T) {
	c := NewCodec()
	type hasChan struct{ ch chan int }
	if _, err := c.Capture(&hasChan{ch: make(chan int)}); err == nil {
		t.Errorf("capture of chan field: want error")
	}
	type hasIface struct{ v any }
	if _, err := c.Capture(&hasIface{v: 3}); err == nil {
		t.Errorf("capture of interface field: want error")
	}
	type nonPODMap struct{ m map[string][]int }
	if _, err := c.Capture(&nonPODMap{m: map[string][]int{"a": {1}}}); err == nil {
		t.Errorf("capture of non-POD map: want error")
	}
	if _, err := c.Capture(42); err == nil {
		t.Errorf("capture of non-pointer root: want error")
	}
}

// State slices change length as a simulation runs (append-grown request
// buffers): restore rebinds the target length to the captured one, in
// place when capacity allows and via reallocation when not.
func TestSliceLengthRebinds(t *testing.T) {
	c := NewCodec(skipExternal)
	s := newSynth()
	img, err := c.Capture(s) // pods has len 2
	if err != nil {
		t.Fatalf("capture: %v", err)
	}

	grown := newSynth()
	grown.pods = append(grown.pods, 9, 10, 11)
	if err := c.Restore(img, grown); err != nil {
		t.Fatalf("restore over longer slice: %v", err)
	}
	if !reflect.DeepEqual(grown.pods, []float64{0.5, 1.5}) {
		t.Errorf("shrink rebind: got %v", grown.pods)
	}

	shrunk := newSynth()
	shrunk.pods = shrunk.pods[:1]
	if err := c.Restore(img, shrunk); err != nil {
		t.Fatalf("restore over shorter slice: %v", err)
	}
	if !reflect.DeepEqual(shrunk.pods, []float64{0.5, 1.5}) {
		t.Errorf("grow rebind: got %v", shrunk.pods)
	}
}

// Nil maps and nil slices captured as nil must restore over nil targets.
func TestNilsRoundTrip(t *testing.T) {
	c := NewCodec()
	type nils struct {
		s []int
		m map[int]int
		f func()
	}
	s := &nils{}
	img, err := c.Capture(s)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if err := c.Restore(img, &nils{}); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

// refEncodePOD is a byte-at-a-time reference for encodePOD: the same
// record format — a zero run shorter than zeroRunMin only when it ends
// the chunk, literals scanned in 8-byte steps and cut where a zero run
// of at least zeroRunMin starts at a step — with every test done one
// byte at a time.
func refEncodePOD(data []byte, b []byte) []byte {
	zeros := func(b []byte) int {
		n := 0
		for n < len(b) && b[n] == 0 {
			n++
		}
		return n
	}
	for len(b) > 0 {
		z := zeros(b)
		if z < zeroRunMin && z < len(b) {
			z = 0
		}
		rest := b[z:]
		lit := len(rest)
		for i := 0; i+8 <= len(rest); {
			if n := zeros(rest[i : i+8]); n < 8 {
				i += 8
				continue
			}
			n := zeros(rest[i:])
			if n >= zeroRunMin {
				lit = i
				break
			}
			i += n
		}
		data = binary.AppendUvarint(data, uint64(z))
		data = binary.AppendUvarint(data, uint64(lit))
		data = append(data, rest[:lit]...)
		b = rest[lit:]
	}
	return data
}

// randPOD builds a buffer of alternating zero runs and literals. Zero
// runs are 0–200 bytes, biased toward the zeroRunMin boundary (63, 64,
// 65); some are placed to straddle a 64-byte block edge; literals may
// contain zero bytes of their own; total lengths are arbitrary.
func randPOD(rng *rand.Rand) []byte {
	var b []byte
	for len(b) < 64+rng.Intn(2000) {
		var z int
		switch rng.Intn(4) {
		case 0:
			z = 63 + rng.Intn(3)
		case 1:
			// Start the run a few bytes before the next block edge.
			if pad := 64 - len(b)%64 - 1 - rng.Intn(8); pad > 0 {
				b = append(b, bytes.Repeat([]byte{0x5a}, pad)...)
			}
			z = 64 + rng.Intn(137)
		default:
			z = rng.Intn(201)
		}
		b = append(b, make([]byte, z)...)
		for n := rng.Intn(100); n > 0; n-- {
			v := byte(rng.Intn(256))
			if rng.Intn(3) > 0 {
				v |= 1
			}
			b = append(b, v)
		}
	}
	return b[:len(b)-rng.Intn(min(len(b), 9))]
}

type podHolder struct{ b []byte }

// checkPODCodec asserts that src encodes exactly like the reference and
// restores byte for byte over a target full of non-zero garbage.
func checkPODCodec(t *testing.T, rng *rand.Rand, src []byte) {
	t.Helper()
	if got, want := encodePOD(nil, src), refEncodePOD(nil, src); !bytes.Equal(got, want) {
		t.Fatalf("len %d: encodePOD differs from the reference\n got %x\nwant %x", len(src), got, want)
	}
	c := NewCodec()
	img, err := c.Capture(&podHolder{b: src})
	if err != nil {
		t.Fatal(err)
	}
	dst := &podHolder{b: make([]byte, len(src))}
	for i := range dst.b {
		dst.b[i] = byte(1 + rng.Intn(255))
	}
	if err := c.Restore(img, dst); err != nil {
		t.Fatalf("len %d: restore: %v", len(src), err)
	}
	if !bytes.Equal(dst.b, src) {
		t.Fatalf("len %d: restore did not reproduce the source", len(src))
	}
}

func TestEncodePODMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000} {
		checkPODCodec(t, rng, make([]byte, n))
	}
	for i := 0; i < 2000; i++ {
		checkPODCodec(t, rng, randPOD(rng))
	}
}

func FuzzEncodePOD(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add(append(make([]byte, 65), 1))
	f.Add(append([]byte{1, 2, 3}, make([]byte, 70)...))
	for i := 0; i < 16; i++ {
		f.Add(randPOD(rng))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkPODCodec(t, rand.New(rand.NewSource(int64(len(src)))), src)
	})
}

// Corrupt lengths at or past 1<<63 wrap negative as an int; restore
// must reject them with an error rather than panic or write a negative
// slice length.
func TestRestoreRejectsHugeLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	pod := func(n uint64) []byte { return binary.AppendUvarint([]byte{tagPOD}, n) }
	cat := func(bs ...[]byte) []byte { return bytes.Join(bs, nil) }

	t.Run("zero run", func(t *testing.T) {
		var dst [128]byte
		if err := restore(t, &Image{tags: pod(128), data: cat(huge, []byte{0})}, &dst); err == nil {
			t.Error("zero run of 1<<63 bytes: want error")
		}
	})
	t.Run("literal", func(t *testing.T) {
		var dst [128]byte
		if err := restore(t, &Image{tags: pod(128), data: cat([]byte{0}, huge)}, &dst); err == nil {
			t.Error("literal of 1<<63 bytes: want error")
		}
	})
	t.Run("POD slice", func(t *testing.T) {
		// 1<<63 uint64s are 0 bytes modulo 2^64, so the chunk header
		// that follows matches a wrapped byte count.
		type podSlice struct{ s []uint64 }
		dst := &podSlice{s: []uint64{1, 2}}
		err := restore(t, &Image{tags: cat([]byte{tagStruct, tagSlice}, huge, pod(0))}, dst)
		if err == nil || len(dst.s) < 0 {
			t.Errorf("slice of 1<<63 uint64s: err %v, len %d", err, len(dst.s))
		}
	})
	t.Run("string slice", func(t *testing.T) {
		type strSlice struct{ s []string }
		dst := &strSlice{s: []string{"a"}}
		err := restore(t, &Image{tags: cat([]byte{tagStruct, tagSlice}, huge)}, dst)
		if err == nil || len(dst.s) < 0 {
			t.Errorf("slice of 1<<63 strings: err %v, len %d", err, len(dst.s))
		}
	})
}

// restore runs Codec.Restore, failing the test if it panics.
func restore(t *testing.T, img *Image, root any) error {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("restore panicked: %v", p)
		}
	}()
	return NewCodec().Restore(img, root)
}
