package mp

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestQueueMatchByTagAndSource(t *testing.T) {
	q := NewQueue()
	q.Push(Message{Tag: 1, Source: 7, Data: []float64{1}})
	q.Push(Message{Tag: 2, Source: 8, Data: []float64{2}})
	q.Push(Message{Tag: 1, Source: 8, Data: []float64{3}})

	// Specific tag+source skips earlier non-matching messages.
	m, err := q.Recv(1, 8)
	if err != nil || m.Data[0] != 3 {
		t.Fatalf("Recv(1,8) = %v, %v", m, err)
	}
	// Wildcard source takes first matching tag.
	m, err = q.Recv(1, AnySource)
	if err != nil || m.Data[0] != 1 {
		t.Fatalf("Recv(1,any) = %v, %v", m, err)
	}
	// Full wildcard drains the rest.
	m, err = q.Recv(AnyTag, AnySource)
	if err != nil || m.Data[0] != 2 {
		t.Fatalf("Recv(any,any) = %v, %v", m, err)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d", q.Len())
	}
}

func TestQueueFIFOPerSourceTag(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		q.Push(Message{Tag: 5, Source: 3, Data: []float64{float64(i)}})
	}
	for i := 0; i < 10; i++ {
		m, err := q.Recv(5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if m.Data[0] != float64(i) {
			t.Fatalf("out of order: got %g want %d", m.Data[0], i)
		}
	}
}

func TestProbeDoesNotConsume(t *testing.T) {
	q := NewQueue()
	q.Push(Message{Tag: 4, Source: 2})
	tag, src, ok, err := q.ProbeTimeout(AnyTag, AnySource, time.Second)
	if err != nil || !ok || tag != 4 || src != 2 {
		t.Fatalf("ProbeTimeout = (%d,%d,%v,%v)", tag, src, ok, err)
	}
	if q.Len() != 1 {
		t.Fatal("probe consumed the message")
	}
	if _, err := q.Recv(tag, src); err != nil {
		t.Fatal(err)
	}
}

func TestBlockingRecvWakesOnPush(t *testing.T) {
	q := NewQueue()
	got := make(chan Message, 1)
	go func() {
		m, err := q.Recv(9, AnySource)
		if err == nil {
			got <- m
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push(Message{Tag: 9, Source: 1, Data: []float64{42}})
	select {
	case m := <-got:
		if m.Data[0] != 42 {
			t.Fatalf("wrong payload %v", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked receive never woke")
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	q := NewQueue()
	errc := make(chan error, 1)
	go func() {
		_, err := q.Recv(1, 1)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake waiter")
	}
	if err := q.Push(Message{}); err != ErrClosed {
		t.Fatalf("push after close: %v", err)
	}
}

func TestStrictFIFOMatchesOnlyHead(t *testing.T) {
	q := NewStrictFIFOQueue()
	q.Push(Message{Tag: 1, Source: 0})
	q.Push(Message{Tag: 2, Source: 0})
	// Probing for tag 2 while tag 1 is at the head is an MPL ordering
	// violation and must error, not silently match.
	if _, _, _, err := q.ProbeTimeout(2, AnySource, time.Second); err == nil {
		t.Fatal("strict FIFO probe skipped the head")
	}
	if _, err := q.Recv(2, AnySource); err == nil {
		t.Fatal("strict FIFO recv skipped the head")
	}
	// Matching the head works.
	if _, err := q.Recv(1, AnySource); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Recv(2, AnySource); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue()
	const n = 200
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				q.Push(Message{Tag: 1, Source: p, Data: []float64{float64(i)}})
			}
		}(p)
	}
	var mu sync.Mutex
	counts := map[int]int{}
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				m, err := q.Recv(1, AnySource)
				if err != nil {
					return
				}
				mu.Lock()
				counts[m.Source]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Wait for drain then close.
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	cg.Wait()
	for p := 0; p < 4; p++ {
		if counts[p] != n {
			t.Fatalf("source %d delivered %d/%d", p, counts[p], n)
		}
	}
}

// Property: a random interleaving of pushes with distinct (tag, source)
// pairs is fully drainable by wildcard receive in arrival order.
func TestQuickArrivalOrder(t *testing.T) {
	f := func(tags []uint8) bool {
		q := NewQueue()
		for i, tg := range tags {
			q.Push(Message{Tag: int(tg % 8), Source: i})
		}
		for i := range tags {
			m, err := q.Recv(AnyTag, AnySource)
			if err != nil || m.Source != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
