package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// opTrace is one traced operation: the timestamps the harness took around
// the public calls and inside the callbacks, in microseconds of the
// workload's clock (host time on the wall workloads, virtual on sim_*).
// Receiver arrays are indexed by rank-1.
//
// The spans built from it form a tree:
//
//	msg            Send call → last receiver's Completion
//	├─ announce[r] Send call → receiver r's Incoming
//	│  └─ send_call  the part of the Send call inside announce[r]
//	├─ recv[r]     receiver r's Incoming → its Completion
//	└─ skew        first → last receiver Completion
//
// A span's self time is its duration minus what its children cover. On the
// critical receiver (the last to complete) announce and recv tile msg, so
// the self times of send_call, announce[last] and recv[last] sum to msg.
type opTrace struct {
	send, sendRet float64
	incoming      []float64
	completion    []float64
}

func wallOp(t msgTimes) opTrace {
	op := opTrace{send: micros(t.send), sendRet: micros(t.sendRet)}
	for r := range t.incoming {
		op.incoming = append(op.incoming, micros(t.incoming[r]))
		op.completion = append(op.completion, micros(t.completion[r]))
	}
	return op
}

func simOp(m simMsg) opTrace {
	op := opTrace{send: m.send * 1e6, sendRet: m.send * 1e6}
	for r := range m.incoming {
		op.incoming = append(op.incoming, m.incoming[r]*1e6)
		op.completion = append(op.completion, m.completion[r]*1e6)
	}
	return op
}

// last is the critical receiver: the one whose Completion came last.
func (o opTrace) last() int {
	l := 0
	for r, c := range o.completion {
		if c > o.completion[l] {
			l = r
		}
	}
	return l
}

func (o opTrace) msg() float64 { return o.completion[o.last()] - o.send }

// sendCallIn is the part of the Send call that lies inside [send, until].
func (o opTrace) sendCallIn(until float64) float64 {
	return math.Max(0, math.Min(o.sendRet, until)-o.send)
}

// spanSummary is what the traced run keeps of a slice's spans.
type spanSummary struct {
	ops int
	// Medians over operations, in microseconds.
	sendCall, announce, recvSpan, skew float64
	// Self-time totals over all operations, in microseconds.
	selfSendCall, selfAnnounce, selfRecv, selfMsg, totalMsg float64
	// accountingErr is the largest |announce[last]+recv[last]-msg|/msg.
	accountingErr float64
	// disordered counts operations with a span of negative length: a
	// timestamp left over from another message, or a callback out of order.
	disordered int
}

func summarize(ops []opTrace) spanSummary {
	s := spanSummary{ops: len(ops)}
	var sendCall, announce, recvSpan, skew []float64
	for _, o := range ops {
		l := o.last()
		msg := o.msg()
		ann := o.incoming[l] - o.send
		rcv := o.completion[l] - o.incoming[l]
		first := o.completion[0]
		lastAnn := o.incoming[0]
		for r := range o.completion {
			first = math.Min(first, o.completion[r])
			lastAnn = math.Max(lastAnn, o.incoming[r])
		}
		for r := range o.completion {
			if o.incoming[r] < o.send || o.completion[r] < o.incoming[r] {
				s.disordered++
				break
			}
		}
		sendCall = append(sendCall, o.sendRet-o.send)
		announce = append(announce, lastAnn-o.send)
		recvSpan = append(recvSpan, rcv)
		skew = append(skew, o.completion[l]-first)

		inAnn := o.sendCallIn(o.incoming[l])
		s.selfSendCall += inAnn
		s.selfAnnounce += ann - inAnn
		s.selfRecv += rcv
		s.selfMsg += msg - ann - rcv
		s.totalMsg += msg
		if msg > 0 {
			s.accountingErr = math.Max(s.accountingErr, math.Abs(ann+rcv-msg)/msg)
		}
	}
	s.sendCall, s.announce = median(sendCall), median(announce)
	s.recvSpan, s.skew = median(recvSpan), median(skew)
	return s
}

// check enforces the span accounting rules of the traced run.
func (s spanSummary) check() error {
	if s.ops == 0 {
		return fmt.Errorf("traced slice recorded no operations")
	}
	if s.disordered > 0 {
		return fmt.Errorf("%d of %d operations have a span that ends before it starts", s.disordered, s.ops)
	}
	if s.accountingErr > 0.02 {
		return fmt.Errorf("announce[last]+recv[last] differs from msg by %.1f %%", s.accountingErr*100)
	}
	sum := s.selfSendCall + s.selfAnnounce + s.selfRecv + s.selfMsg
	if math.Abs(sum-s.totalMsg) > 0.02*s.totalMsg {
		return fmt.Errorf("self times sum to %.0f us, msg spans to %.0f us", sum, s.totalMsg)
	}
	return nil
}

// selfTimeTable renders where one operation's time went, by the layer that
// owns each span from the outside: what happens inside a span is a later
// change's instrumentation.
func (s spanSummary) selfTimeTable(workload, clock, nic string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "self time per operation, %s, %d traced operations, %s clock\n", workload, s.ops, clock)
	fmt.Fprintf(&b, "%-18s %-22s %14s %8s\n", "span", "layer", "mean us", "share")
	row := func(span, layer string, total float64) {
		fmt.Fprintf(&b, "%-18s %-22s %14.3f %7.1f%%\n", span, layer, total/float64(s.ops), 100*total/s.totalMsg)
	}
	row("send_call", "core (root)", s.selfSendCall)
	row("announce[last]", "mesh + core", s.selfAnnounce)
	row("recv[last]", nic+" + core", s.selfRecv)
	row("msg (uncovered)", "harness", s.selfMsg)
	row("msg", "all", s.totalMsg)
	return b.String()
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// maxTraceOps bounds the Chrome-trace file; the summary uses every operation.
const maxTraceOps = 200

// writeChromeTrace writes the harness's spans: thread 0 is the root, thread
// r the receiver of rank r.
func writeChromeTrace(path string, ops []opTrace) error {
	if len(ops) > maxTraceOps {
		ops = ops[:maxTraceOps]
	}
	var events []chromeEvent
	add := func(name string, tid, id int, from, to float64) {
		events = append(events, chromeEvent{
			Name: name, Ph: "X", Ts: from, Dur: to - from, Pid: 1, Tid: tid,
			Args: map[string]int{"msg": id},
		})
	}
	for id, o := range ops {
		l := o.last()
		add("msg", 0, id, o.send, o.completion[l])
		add("send_call", 0, id, o.send, o.sendRet)
		first := o.completion[l]
		for r := range o.completion {
			add("announce", r+1, id, o.send, o.incoming[r])
			add("recv", r+1, id, o.incoming[r], o.completion[r])
			first = math.Min(first, o.completion[r])
		}
		add("skew", 0, id, first, o.completion[l])
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
