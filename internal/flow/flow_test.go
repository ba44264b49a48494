package flow

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"shadowdb/internal/obs"
)

// Reads must be refused while writes are still admitted: the read
// threshold is strictly inside the write threshold.
func TestQueueShedsReadsBeforeWrites(t *testing.T) {
	q := NewQueueCaps(8, 4, 7)
	for i := 0; i < 4; i++ {
		if err := q.Admit(ClassRead); err != nil {
			t.Fatalf("read %d below ReadCap refused: %v", i, err)
		}
	}
	if err := q.Admit(ClassRead); !errors.Is(err, ErrOverload) {
		t.Fatalf("read at ReadCap: got %v, want ErrOverload", err)
	}
	for i := 0; i < 3; i++ {
		if err := q.Admit(ClassWrite); err != nil {
			t.Fatalf("write %d refused while reads already shed: %v", i, err)
		}
	}
	if err := q.Admit(ClassWrite); !errors.Is(err, ErrOverload) {
		t.Fatalf("write at WriteCap: got %v, want ErrOverload", err)
	}
	// Control traffic still has the reserved band above WriteCap.
	if err := q.Admit(ClassControl); err != nil {
		t.Fatalf("control refused in reserved band: %v", err)
	}
	if err := q.Admit(ClassControl); !errors.Is(err, ErrOverload) {
		t.Fatalf("control past Cap: got %v, want ErrOverload", err)
	}
	if got := q.Sheds(ClassRead); got != 1 {
		t.Fatalf("read sheds = %d, want 1", got)
	}
	if q.Peak() != q.Cap() {
		t.Fatalf("peak %d, want cap %d", q.Peak(), q.Cap())
	}
}

// No priority inversion: however many reads arrive, occupancy from
// reads alone stops at ReadCap, so a write always finds WriteCap -
// ReadCap admissible slots.
func TestQueueWritesNeverStarvedByReads(t *testing.T) {
	q := NewQueue(16) // readCap 8, writeCap 14
	shed := 0
	for i := 0; i < 1000; i++ {
		if err := q.Admit(ClassRead); err != nil {
			shed++
		}
	}
	if shed != 1000-8 {
		t.Fatalf("read sheds = %d, want %d", shed, 1000-8)
	}
	admitted := 0
	for q.Admit(ClassWrite) == nil {
		admitted++
	}
	if admitted != q.ClassCap(ClassWrite)-q.ClassCap(ClassRead) {
		t.Fatalf("writes admitted under read flood = %d, want %d",
			admitted, q.ClassCap(ClassWrite)-q.ClassCap(ClassRead))
	}
}

// A full queue must answer with ErrOverload — an explicit shed — and
// never with anything that smells like a timeout.
func TestQueueFullReturnsErrOverloadNotTimeout(t *testing.T) {
	q := NewQueueCaps(4, 1, 2)
	if err := q.Admit(ClassWrite); err != nil {
		t.Fatalf("first write refused: %v", err)
	}
	_ = q.Admit(ClassWrite)
	err := q.Admit(ClassWrite)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("overload error must not be a deadline error")
	}
	var ne net.Error
	if errors.As(err, &ne) {
		t.Fatalf("overload error must not implement net.Error (timeout)")
	}
}

func TestQueueReleaseRestoresAdmission(t *testing.T) {
	q := NewQueueCaps(4, 1, 2)
	if err := q.Admit(ClassRead); err != nil {
		t.Fatal(err)
	}
	if err := q.Admit(ClassRead); !errors.Is(err, ErrOverload) {
		t.Fatalf("got %v, want ErrOverload", err)
	}
	q.Release()
	if err := q.Admit(ClassRead); err != nil {
		t.Fatalf("read refused after release: %v", err)
	}
	q.ReleaseN(5)
	if q.Len() != 0 {
		t.Fatalf("len %d after over-release, want 0 (clamped)", q.Len())
	}
}

func TestNewQueueClampsAndNests(t *testing.T) {
	for _, cap := range []int{0, 1, 4, 5, 16, 1024} {
		q := NewQueue(cap)
		r, w, c := q.ClassCap(ClassRead), q.ClassCap(ClassWrite), q.Cap()
		if !(0 < r && r < w && w < c) {
			t.Fatalf("cap %d: thresholds %d/%d/%d not nested", cap, r, w, c)
		}
	}
}

func TestExpired(t *testing.T) {
	if Expired(0, 1<<60) {
		t.Fatal("zero deadline must never expire")
	}
	if Expired(100, 99) {
		t.Fatal("not yet due")
	}
	if !Expired(100, 100) {
		t.Fatal("due at the deadline")
	}
}

func TestRetryBudgetSpendAndRefill(t *testing.T) {
	b := &RetryBudget{Rate: 4}
	burst := int(b.Rate * burstSeconds)
	now := time.Duration(0)
	for i := 0; i < burst; i++ {
		if !b.Allow(now) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow(now) {
		t.Fatal("empty bucket allowed a retry")
	}
	// 4 tokens/s: after 250ms exactly one token is back.
	now += 250 * time.Millisecond
	if !b.Allow(now) {
		t.Fatal("refilled token denied")
	}
	if b.Allow(now) {
		t.Fatal("second token allowed before it refilled")
	}
	// Refill clamps at the burst.
	now += time.Hour
	for i := 0; i < burst; i++ {
		if !b.Allow(now) {
			t.Fatalf("token %d after long idle denied", i)
		}
	}
	if b.Allow(now) {
		t.Fatal("burst clamp exceeded")
	}
}

func TestRetryBudgetNilAlwaysAllows(t *testing.T) {
	var b *RetryBudget
	if !b.Allow(0) {
		t.Fatal("nil budget must allow")
	}
}

func TestWatchdogFiresOnSustainedShedOnly(t *testing.T) {
	o := obs.New(64)
	shed := o.Counter("test.shed")
	r := obs.NewRates(o, time.Second, 16)
	fired := 0
	w := &Watchdog{Rates: r, Metric: "test.shed", Threshold: 5, Windows: 3,
		OnSustained: func(int) { fired++ }}

	// Two hot windows, one cool, two hot: never 3 consecutive.
	for _, n := range []int64{10, 10, 0, 10, 10} {
		shed.Add(n)
		r.Tick()
		if w.Check() {
			t.Fatal("fired without 3 consecutive hot windows")
		}
	}
	// Third consecutive hot window: fire once.
	shed.Add(10)
	r.Tick()
	if !w.Check() {
		t.Fatal("did not fire on 3rd consecutive hot window")
	}
	if !w.Fired() || fired != 1 {
		t.Fatalf("fired=%v count=%d, want true/1", w.Fired(), fired)
	}
	// Latched until Reset.
	shed.Add(10)
	r.Tick()
	if w.Check() || fired != 1 {
		t.Fatal("re-fired without Reset")
	}
	w.Reset()
	for i := 0; i < 3; i++ {
		shed.Add(10)
		r.Tick()
	}
	if !w.Check() || fired != 2 {
		t.Fatalf("did not re-fire after Reset (count %d)", fired)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{ClassRead: "read", ClassWrite: "write", ClassControl: "control", Class(9): "unknown"} {
		if c.String() != want {
			t.Fatalf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
