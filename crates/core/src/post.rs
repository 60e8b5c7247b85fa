//! What the master's and the workers' threads do with what their handlers
//! leave: one effect type, [`Post`], one deliverer, [`Ends::deliver`], and
//! one receive loop, [`Ends::serve`] — `recv → lock → handle → take the
//! outbox → unlock → deliver`, so no paced send sleeps with a lock held.

use crate::job::JobResult;
use crate::messages::{DataMsg, TaskMsg};
use crate::worker::ReadyTask;
use std::time::Duration;
use ts_netsim::{Fabric, FabricReceiver, NodeId};
use tschan::Sender;

/// One thing a handler leaves for its thread to do once the lock is
/// dropped.
pub(crate) enum Post {
    /// A frame on the task plane (master ↔ worker).
    Task(NodeId, TaskMsg),
    /// A frame on the data plane (worker ↔ worker).
    Data(NodeId, DataMsg),
    /// A data-plane frame whose payload, copied out of held columns, is made
    /// by the delivering thread with the lock dropped.
    Copied(NodeId, Box<dyn FnOnce() -> DataMsg + Send>),
    /// A task for the worker's comper pool.
    Ready(ReadyTask),
    /// A job's result for the client waiting on it. It stays behind every
    /// frame posted before it, so a client back from `wait` finds every
    /// byte of its job already sent and counted.
    Notify(Sender<JobResult>, JobResult),
}

/// Where one machine's posts go.
#[derive(Clone)]
pub(crate) struct Ends {
    pub(crate) me: NodeId,
    pub(crate) task: Fabric<TaskMsg>,
    /// A worker's data plane and comper pool; the master has neither.
    pub(crate) worker: Option<(Fabric<DataMsg>, Sender<ReadyTask>)>,
}

impl Ends {
    /// Delivers `posts`: the ready tasks first, so the compers start while
    /// paced frames go out, then every frame and notification in the order
    /// the handlers made them. A send to a machine that has stopped fails
    /// and is dropped.
    pub(crate) fn deliver(&self, mut posts: Vec<Post>) {
        // Stable: each group keeps its order.
        posts.sort_by_key(|post| !matches!(post, Post::Ready(_)));
        let worker = || self.worker.as_ref().expect("a worker's post");
        for post in posts {
            let _ = match post {
                Post::Task(to, msg) => self.task.send(self.me, to, msg).ok(),
                Post::Data(to, msg) => worker().0.send(self.me, to, msg).ok(),
                Post::Copied(to, copy) => worker().0.send(self.me, to, copy()).ok(),
                Post::Ready(task) => worker().1.send(task).ok(),
                Post::Notify(client, result) => client.send(result).ok(),
            };
        }
    }

    /// A machine thread's receive loop. Each message `rx` brings — and,
    /// given a `tick`, `None` after each `tick` of silence — goes to `turn`,
    /// which handles it under the machine's lock and returns the outbox it
    /// took, delivered here with the lock dropped. The loop ends when `turn`
    /// returns `None` or the channel closes.
    pub(crate) fn serve<M>(
        &self,
        rx: &FabricReceiver<M>,
        tick: Option<Duration>,
        mut turn: impl FnMut(Option<M>) -> Option<Vec<Post>>,
    ) {
        loop {
            let msg = match tick {
                Some(tick) => rx.recv_timeout(tick),
                None => rx.recv().map(Some),
            };
            match msg.map(&mut turn) {
                Ok(Some(posts)) => self.deliver(posts),
                _ => return,
            }
        }
    }
}
