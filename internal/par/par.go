// Package par provides the repository's bounded worker pool: a minimal
// fan-out primitive for the candidate-scoring and geometry hot paths.
//
// Design rules, in order of importance:
//
//  1. Determinism. Do(n, fn) runs fn(0..n-1) exactly once each; callers
//     write results into preallocated slots indexed by i, so merge order is
//     fixed by construction and never depends on the worker count.
//  2. Panic containment. A panic inside fn is captured, the remaining
//     workers drain, and the first panic is re-raised in the calling
//     goroutine wrapped in *TaskPanic. Callers running under core.Guard
//     see it as an ordinary panic and degrade; nothing deadlocks and no
//     goroutine dies silently.
//  3. No dependencies upward. par sits below geom/rl/core in the import
//     graph and must not import them.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"isrl/internal/trace"
)

// maxWorkers bounds the goroutines any single Do call may use. 0 means
// "use GOMAXPROCS at call time".
var maxWorkers atomic.Int64

// SetMaxWorkers overrides the pool width (0 restores the GOMAXPROCS
// default) and returns the previous setting, so tests can do
// defer SetMaxWorkers(SetMaxWorkers(1)).
func SetMaxWorkers(n int) int {
	prev := maxWorkers.Swap(int64(n))
	workersGauge.Set(int64(Workers()))
	return int(prev)
}

// Workers reports the current pool width: the SetMaxWorkers override when
// set, otherwise GOMAXPROCS.
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// TaskPanic wraps a panic raised by a pool task so the caller can tell a
// worker fault from one of its own. Do re-raises it in the calling
// goroutine after all workers have drained.
type TaskPanic struct {
	Index int    // task index whose fn panicked
	Value any    // original panic value
	Stack []byte // worker stack at panic time
}

// Error implements error so recover-based guards can treat it uniformly.
func (t *TaskPanic) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", t.Index, t.Value)
}

// Do runs fn(i) for every i in [0, n), using up to Workers() goroutines.
// It returns only after every task has finished. If any fn panics, the
// first panic (by completion time) is re-raised in the caller as a
// *TaskPanic once the remaining tasks have drained.
//
// With one worker — or one task — fn runs inline on the calling goroutine,
// so sequential fallback behavior is exactly a for loop.
func Do(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if w > n {
		w = n
	}
	doRuns.Inc()
	doTasks.Add(int64(n))
	if w <= 1 {
		inlineRuns.Inc()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first *TaskPanic
	)
	task := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil {
					first = &TaskPanic{Index: i, Value: r, Stack: debug.Stack()}
				}
				mu.Unlock()
				taskPanics.Inc()
			}
		}()
		fn(i)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// DoCtx is Do with a tracing span: when ctx carries an active trace the
// whole fan-out — dispatch, queue wait behind busy workers, and the tasks
// themselves — is timed as one "par.do" span annotated with the task and
// worker counts. Task functions that want their own spans capture ctx
// themselves; span appends are trace-mutex-protected, so worker goroutines
// may record freely.
func DoCtx(ctx context.Context, n int, fn func(i int)) {
	sp := trace.StartLeaf(ctx, "par.do")
	if sp == nil {
		Do(n, fn)
		return
	}
	sp.SetInt("tasks", int64(n))
	sp.SetInt("workers", int64(Workers()))
	defer sp.End()
	Do(n, fn)
}
