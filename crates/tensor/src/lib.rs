//! # groupsa-tensor
//!
//! Dense 2-D tensor math and tape-based reverse-mode automatic
//! differentiation — the numeric substrate on which the GroupSA model
//! ([ICDE 2020](https://doi.org/10.1109/ICDE48307.2020)) and all baselines
//! in this workspace are built.
//!
//! The paper trained its model with PyTorch; nothing comparable is assumed
//! here, so this crate supplies the minimal-but-complete slice of a deep
//! learning framework the model actually needs:
//!
//! * [`Matrix`] — a row-major `f32` matrix with the usual linear-algebra
//!   and element-wise operations (`matmul`, `transpose`, broadcasting row
//!   adds, concatenation, slicing, gathering, …).
//! * [`Graph`] — a computation tape. Operations push nodes; calling
//!   [`Graph::backward`] on a scalar node yields exact reverse-mode
//!   gradients for every node, including *parameter bindings* so model
//!   code can scatter gradients back into embedding tables without ever
//!   copying whole tables onto the tape.
//! * [`Forward`] — the ops a model's forward pass is written in, once.
//!   [`Graph`] evaluates a forward definition onto its tape; [`Eager`]
//!   evaluates the same definition with no tape, borrowing parameters
//!   and reusing buffers, for inference and serving. Both produce the
//!   same bits.
//! * [`ops`] — numerically stable free functions (softmax, softplus,
//!   sigmoid, log-sum-exp) shared by both evaluators.
//! * [`rng`] — seeded initialisation helpers (Glorot uniform, Gaussian via
//!   Box–Muller) so every experiment in the workspace is reproducible from
//!   a `u64` seed.
//! * [`check`] — finite-difference gradient checking used throughout the
//!   test suites of this crate and `groupsa-nn`.
//!
//! ## Design notes
//!
//! Everything is 2-D. The GroupSA computation graph (self-attention over a
//! group's members, attention over a user's interacted items, MLP scorers)
//! decomposes naturally into small dense 2-D products, so a full N-d
//! tensor type would add complexity without buying anything. Batching over
//! candidate items is expressed with ordinary matrix rows; batching over
//! groups is expressed by building one small tape per group (tapes are
//! arena-allocated `Vec`s — building one costs a handful of allocations).
//!
//! Shape mismatches are *programming errors*, not recoverable conditions,
//! and therefore panic with a descriptive message (the same stance taken
//! by `ndarray`). All panicking preconditions are documented on each
//! method.
//!
//! ## Example
//!
//! ```
//! use groupsa_tensor::{Forward, Graph, Matrix};
//!
//! // f(W) = sum(relu(x·W)) ; df/dW by reverse mode.
//! let x = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
//! let w = Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
//!
//! let mut g = Graph::new();
//! let xs = g.leaf(x);
//! let ws = g.param_full(0, &w);
//! let y = g.matmul(xs, ws);
//! let y = g.relu(y);
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(ws).unwrap().shape(), (3, 2));
//! ```

#![warn(missing_docs)]

mod matrix;
pub mod check;
mod forward;
mod graph;
pub mod ops;
pub mod rng;

pub use forward::{Eager, Forward};
pub use graph::{Binding, Grads, Graph, NodeId};
pub use matrix::Matrix;
