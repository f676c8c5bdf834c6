//! # groupsa-nn
//!
//! Neural-network building blocks for the GroupSA reproduction: parameter
//! storage, initialisation, layers (linear, embedding, MLP, layer-norm,
//! dropout), the attention machinery of the paper (masked scaled
//! dot-product *social self-attention*, position-wise FFN, transformer-style
//! encoder layers, and the two-layer "vanilla" attention scorer used for
//! preference aggregation), optimizers (SGD, dense & row-sparse Adam) and
//! the BPR pairwise ranking loss.
//!
//! A layer owns *slots* into a [`ParamStore`] and writes its forward
//! pass once, generic over [`groupsa_tensor::Forward`]. On a
//! [`Graph`](groupsa_tensor::Graph) the pass is recorded onto the
//! autodiff tape; after `backward`, the trainer calls
//! [`ParamStore::accumulate`] to pull gradients off the tape
//! (scatter-adding embedding-row gradients) and then an [`optim`]
//! optimizer to update the parameters. On
//! [`Eager`](groupsa_tensor::Eager) the same pass runs with no tape,
//! borrowing the parameters — the inference and serving path.
//!
//! ```
//! use groupsa_nn::{ParamStore, Linear, Init, optim::{Adam, Optimizer}};
//! use groupsa_tensor::{Graph, Matrix, rng};
//!
//! let mut rng = rng::seeded(1);
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, &mut rng, "fc", 4, 2, Init::Glorot);
//! let mut adam = Adam::default_paper();
//!
//! let x = Matrix::ones(3, 4);
//! let mut g = Graph::new();
//! let xs = g.leaf(x);
//! let y = layer.forward(&mut g, &store, &xs);
//! let loss = g.mean_all(y);
//! let grads = g.backward(loss);
//! store.accumulate(&g, &grads);
//! adam.step(&mut store);
//! ```

#![warn(missing_docs)]

pub mod attention;
pub mod dropout;
pub mod embedding;
pub mod ffn;
pub mod init;
pub mod layernorm;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod param;

pub use attention::{SelfAttention, TransformerLayer, VanillaAttention};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use ffn::FeedForward;
pub use init::Init;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use mlp::Mlp;
pub use param::{GradSink, ParamStore, Parameter};
