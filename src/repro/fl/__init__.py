"""Federated-learning simulator substrate.

The paper runs TensorFlow Federated with multi-process clients over gRPC; the
valuation algorithms, however, only interact with FL through two interfaces:

1. a *utility oracle* ``U(S)`` — train an FL model on the coalition ``S`` of
   clients and report its test performance (this is what every sampling-based
   method consumes), and
2. the *training history* of the grand-coalition FL run — per-round global
   models and per-client local updates (this is what the gradient-based
   baselines OR, λ-MR, GTG-Shapley and DIG-FL consume).

This package provides both on top of an in-process NumPy FedAvg/FedProx
simulator.
"""

from repro.fl.client import FLClient
from repro.fl.config import FLConfig
from repro.fl.history import ClientUpdate, RoundRecord, TrainingHistory
from repro.fl.aggregation import fedavg_aggregate, weighted_average
from repro.fl.server import FLServer
from repro.fl.federation import FederatedTrainer, train_federated
from repro.fl.vectorized import VectorizedCoalitionTrainer, vectorization_blocker
from repro.fl.utility import CoalitionUtility, TabularUtility

__all__ = [
    "FLClient",
    "FLConfig",
    "ClientUpdate",
    "RoundRecord",
    "TrainingHistory",
    "fedavg_aggregate",
    "weighted_average",
    "FLServer",
    "FederatedTrainer",
    "train_federated",
    "VectorizedCoalitionTrainer",
    "vectorization_blocker",
    "CoalitionUtility",
    "TabularUtility",
]
