package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// On a 2-vCPU virtual machine sharing its host, the host's speed drifts:
// the same items256 repetition of the same traffic took from 11 to 15 s
// of CPU a few minutes apart. A speedProbe tracks that drift. It times a
// fixed piece of reference work, interleaved with the phase being
// measured, on the CPU clock of the thread running it (so time the host
// steals from the machine is not counted). The reference work uses the
// standard library only: no change to the repository's code changes what
// it costs. A phase's CPU time divided by the probe's mean cost, times
// probeNominal, is the phase's CPU time in reference seconds: the time it
// would take on a machine where the reference work costs probeNominal.

// probeNominal is the reference work's cost on the reference machine.
const probeNominal = 100 * time.Microsecond

// probeEvery is how many simulation steps pass between two probe
// samples: about one sample per 10-30 ms of simulation, under 1% of it.
const probeEvery = 1000

// probeBurst is how many samples a phase without simulation steps (most
// of set-up) takes at its start and at its end.
const probeBurst = 32

type speedProbe struct {
	n       int           // steps since the last sample
	samples int           // samples taken
	cpu     time.Duration // their thread CPU time
	wall    time.Duration // their wall time

	pub      ed25519.PublicKey
	msg, sig []byte
	names    []string
	buf      []string
	data     []byte
	sink     byte
}

func newSpeedProbe() *speedProbe {
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 128)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	names := make([]string, 256)
	for i := range names {
		names[i] = addr((i * 97) % 1000)
	}
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	return &speedProbe{
		pub:   key.Public().(ed25519.PublicKey),
		msg:   msg,
		sig:   ed25519.Sign(key, msg),
		names: names,
		buf:   make([]string, len(names)),
		data:  data,
	}
}

// tick counts one simulation step and takes a sample every probeEvery.
// A nil *speedProbe does nothing.
func (p *speedProbe) tick() {
	if p == nil {
		return
	}
	p.n++
	if p.n < probeEvery {
		return
	}
	p.n = 0
	p.sample()
}

// burst takes probeBurst samples back to back.
func (p *speedProbe) burst() {
	if p == nil {
		return
	}
	for range probeBurst {
		p.sample()
	}
}

func (p *speedProbe) sample() {
	runtime.LockOSThread()
	w := time.Now()
	c := threadCPU()
	p.work()
	p.cpu += threadCPU() - c
	p.wall += time.Since(w)
	runtime.UnlockOSThread()
	p.samples++
}

// work is the reference work: one ed25519 verification, a sort of 256
// node addresses and a SHA-256 of 4 KiB, the kinds of work the
// simulation spends its time on. It allocates nothing.
func (p *speedProbe) work() {
	if !ed25519.Verify(p.pub, p.msg, p.sig) {
		panic("speed probe: reference signature does not verify")
	}
	copy(p.buf, p.names)
	sort.Strings(p.buf)
	h := sha256.Sum256(p.data)
	p.sink ^= h[0] ^ p.buf[0][4]
}

// mean is the reference work's mean thread CPU cost so far.
func (p *speedProbe) mean() time.Duration {
	if p.samples == 0 {
		return 0
	}
	return p.cpu / time.Duration(p.samples)
}

// refSeconds converts a CPU time measured while p sampled into reference
// seconds.
func (p *speedProbe) refSeconds(cpu time.Duration) float64 {
	return cpu.Seconds() * float64(probeNominal) / float64(p.mean())
}

// threadCPU is the CPU time of the calling OS thread (Linux).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}
